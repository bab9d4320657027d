type study_row = {
  name : string;
  alpha : float;
  beta : float;
  vssc : float;
  d_array : float;
  e_total : float;
  edp : float;
  hvt_advantage : float;
}

let study ?(length = 20_000) ~capacity_bits () =
  List.map
    (fun (name, profile) ->
      let summary = Trace.characterize (Trace.generate ~seed:11 profile ~length) in
      let optimum flavor =
        let env =
          Array_model.Array_eval.make_env ~alpha:summary.Trace.alpha
            ~beta:summary.Trace.beta ~cell_flavor:flavor ()
        in
        (Opt.Exhaustive.search ~space:Opt.Space.reduced ~env ~capacity_bits
           ~method_:Opt.Space.M2 ())
          .Opt.Exhaustive.best
      in
      let hvt = optimum Finfet.Library.Hvt in
      let lvt = optimum Finfet.Library.Lvt in
      let mh = hvt.Opt.Exhaustive.metrics in
      let ml = lvt.Opt.Exhaustive.metrics in
      { name;
        alpha = summary.Trace.alpha;
        beta = summary.Trace.beta;
        vssc = hvt.Opt.Exhaustive.assist.Array_model.Components.vssc;
        d_array = mh.Array_model.Array_eval.d_array;
        e_total = mh.Array_model.Array_eval.e_total;
        edp = mh.Array_model.Array_eval.edp;
        hvt_advantage =
          1.0 -. (mh.Array_model.Array_eval.edp /. ml.Array_model.Array_eval.edp) })
    Trace.named_profiles
