(* Dead-code check over the typed trees a build leaves behind: the names
   the compiler resolved, not the words of the sources.

     dune build @check
     dune exec scripts/check_dead_exports.exe -- _build/default scripts/test_hooks

   It reads the .cmt of every unit and the .cmti of every interface under
   lib/, bin/, bench/, perfbench/, examples/ and test/ of the build
   directory.  Program units are everything outside test/.  The rules:

   - every lib/*/*.ml module is referenced by another program unit;
   - every top-level val of a lib/*/*.mli is referenced by a program unit
     other than its own module;
   - every optional parameter of such a val is passed by some program
     application.  A default the typer fills in does not count, and an
     application that forwards the enclosing val's own optional parameter
     counts only when that parameter is itself passed;
   - otherwise the val, or the parameter as `Module.value?label`, is a line
     of the hook list, whose test must reference it (or pass it) and which
     must have no program user.

   A reference is a value identifier, or the target of a `module X = ...`
   or `let module X = ... in` alias, with aliases followed; the typed tree
   has already resolved every `open`.  Values are keyed by library and
   module (`Obs.Trace.events`, not `Trace.events`).  A forward is an
   argument that is a local variable named like one of the enclosing
   val's optional parameters, or [Some] of one. *)

open Typedtree

let program_dirs = [ "lib/"; "bin/"; "bench/"; "perfbench/"; "examples/" ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let is_program src = List.exists (fun prefix -> starts_with ~prefix src) program_dirs

(* "Numerics__Lu.solve" and "Numerics.Lu.solve" name the same value: the
   first component of a dune-wrapped library path is split at its "__". *)
let normalize name =
  let first, rest =
    match String.index_opt name '.' with
    | Some i -> (String.sub name 0 i, String.sub name i (String.length name - i))
    | None -> (name, "")
  in
  let rec split i =
    if i + 1 >= String.length first then first
    else if first.[i] = '_' && first.[i + 1] = '_' then
      let tail = String.sub first (i + 2) (String.length first - i - 2) in
      String.sub first 0 i ^ if tail = "" then "" else "." ^ tail
    else split (i + 1)
  in
  split 1 ^ rest

(* What the program and the tests use, filled by [scan_unit]. *)

(* Value key ("Lib.Module.value") -> source files of the units naming it. *)
let refs : (string, string list) Hashtbl.t = Hashtbl.create 4096

(* "Lib.Module.value?label" -> (source file, forwarded-from key) of each
   application passing it; the second is [Some k] when the application
   only forwards the enclosing val's own optional parameter [k]. *)
let passes : (string, string * string option) Hashtbl.t = Hashtbl.create 1024

let add_ref key src =
  let users = Option.value ~default:[] (Hashtbl.find_opt refs key) in
  if not (List.mem src users) then Hashtbl.replace refs key (src :: users)

let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (label, _, rest, _) when Btype.is_optional label ->
    Btype.label_name label :: optional_labels rest
  | Tarrow (_, _, rest, _) -> optional_labels rest
  | _ -> []

(* One implementation unit: its value references, aliases resolved, and
   its applications' optional arguments.  [self] is "Lib.Module" for a
   library unit (the key of its top-level values) and the source file
   otherwise. *)
let scan_unit ~src ~self (str : structure) =
  let aliases = Hashtbl.create 16 in
  let toplevel = Hashtbl.create 64 in
  let resolve path =
    let head = Path.head path in
    let name = Path.name path in
    match Hashtbl.find_opt aliases (Ident.unique_name head) with
    | Some target ->
      let hn = String.length (Ident.name head) in
      target ^ String.sub name hn (String.length name - hn)
    | None ->
      if Hashtbl.mem toplevel (Ident.unique_name head) then self ^ "." ^ name
      else normalize name
  in
  let alias id (me : module_expr) =
    match (id, me.mod_desc) with
    | Some id, Tmod_ident (path, _) ->
      let target = resolve path in
      add_ref target src;
      Hashtbl.replace aliases (Ident.unique_name id) target
    | _ -> ()
  in
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            List.iter
              (fun id -> Hashtbl.replace toplevel (Ident.unique_name id) ())
              (pat_bound_idents vb.vb_pat))
          vbs
      | _ -> ())
    str.str_items;
  (* The enclosing top-level val and its optional labels, for forwards. *)
  let enclosing = ref None in
  let forwarded (e : expression) =
    let local_name (e : expression) =
      match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _)
        when not (Hashtbl.mem toplevel (Ident.unique_name id)) ->
        Some (Ident.name id)
      | _ -> None
    in
    let name =
      match e.exp_desc with
      | Texp_construct (_, { cstr_name = "Some"; _ }, [ inner ]) -> local_name inner
      | _ -> local_name e
    in
    match (name, !enclosing) with
    | Some n, Some (key, labels) when List.mem n labels -> Some (key ^ "?" ^ n)
    | _ -> None
  in
  let expr sub (e : expression) =
    (match e.exp_desc with
     | Texp_ident (path, _, _) -> add_ref (resolve path) src
     | Texp_letmodule (id, _, _, me, _) -> alias id me
     | Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, args) ->
       let callee = resolve path in
       List.iter
         (fun (label, arg) ->
           match arg with
           | Some { exp_desc = Texp_construct (_, { cstr_name = "None"; _ }, []); _ } -> ()
           | Some a when Btype.is_optional label ->
             Hashtbl.add passes (callee ^ "?" ^ Btype.label_name label) (src, forwarded a)
           | _ -> ())
         args
     | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let module_binding sub mb =
    alias mb.mb_id mb.mb_expr;
    Tast_iterator.default_iterator.module_binding sub mb
  in
  let structure_item sub item =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          let saved = !enclosing in
          (match pat_bound_idents vb.vb_pat with
           | [ id ] when Hashtbl.mem toplevel (Ident.unique_name id) ->
             enclosing :=
               Some (self ^ "." ^ Ident.name id, optional_labels vb.vb_expr.exp_type)
           | _ -> ());
          sub.Tast_iterator.value_binding sub vb;
          enclosing := saved)
        vbs
    | _ -> Tast_iterator.default_iterator.structure_item sub item
  in
  let it = { Tast_iterator.default_iterator with expr; module_binding; structure_item } in
  it.structure it str

(* "Module" of "Lib.Module". *)
let module_name self =
  let i = String.index self '.' in
  String.sub self (i + 1) (String.length self - i - 1)

(* A top-level val of a library interface. *)
type decl = { mli : string; key : string; short : string; labels : string list }

let decls = ref []
let modules = ref [] (* (source file, "Lib.Module") of each lib/*/*.ml *)

let rec walk dir f =
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then walk path f else f path)
    (try Sys.readdir dir with Sys_error _ -> [||])

let read build path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.cmt_sourcefile with
  | Some src
    when (is_program src || starts_with ~prefix:"test/" src)
         && Sys.file_exists (Filename.concat build src) -> (
    let self = normalize cmt.cmt_modname in
    let library = starts_with ~prefix:"lib/" src in
    match cmt.cmt_annots with
    | Implementation str when Filename.check_suffix src ".ml" ->
      if library then modules := (src, self) :: !modules;
      scan_unit ~src ~self:(if library then self else src) str
    | Interface sg when library && Filename.check_suffix src ".mli" ->
      let m = module_name self in
      List.iter
        (fun item ->
          match item.sig_desc with
          | Tsig_value vd ->
            let v = vd.val_name.txt in
            decls :=
              { mli = src; key = self ^ "." ^ v; short = m ^ "." ^ v;
                labels = optional_labels vd.val_val.val_type }
              :: !decls
          | _ -> ())
        sg.sig_items
    | _ -> ())
  | _ -> ()

(* The hook list: "Module.value" or "Module.value?label", then the test
   source that needs it.  Blank lines and '#' comments are skipped. *)
let read_hooks file =
  let ic = open_in file in
  let rec go n acc =
    match input_line ic with
    | exception End_of_file -> close_in ic; List.rev acc
    | line ->
      let fields = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
      (match fields with
       | name :: test :: _ when name.[0] <> '#' -> go (n + 1) ((name, test, n) :: acc)
       | _ -> go (n + 1) acc)
  in
  go 1 []

let () =
  let build, hooks_file =
    match Sys.argv with
    | [| _; build; hooks |] -> (build, hooks)
    | _ -> prerr_endline "usage: check_dead_exports BUILD_DIR HOOKS_FILE"; exit 2
  in
  List.iter
    (fun dir ->
      walk (Filename.concat build dir) (fun path ->
        if Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti" then
          read build path))
    ("test" :: List.map (fun d -> String.sub d 0 (String.length d - 1)) program_dirs);
  let hooks = read_hooks hooks_file in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let own_ml mli = Filename.remove_extension mli ^ ".ml" in
  let users key = Option.value ~default:[] (Hashtbl.find_opt refs key) in
  (* Passed by a program: a direct pass, or a forward of a passed label. *)
  let passed = Hashtbl.create 256 in
  let rec is_passed ?(seen = []) key =
    match Hashtbl.find_opt passed key with
    | Some b -> b
    | None ->
      let b =
        (not (List.mem key seen))
        && List.exists
             (fun (src, from) ->
               is_program src
               && match from with None -> true | Some k -> is_passed ~seen:(key :: seen) k)
             (Hashtbl.find_all passes key)
      in
      if seen = [] then Hashtbl.replace passed key b;
      b
  in
  (* A hook line names "Module.value", or "Lib.Module.value" where two
     libraries share a module name. *)
  let hook ~key name = List.find_opt (fun (n, _, _) -> n = key || n = name) hooks in
  let declared = Hashtbl.create 1024 in
  List.iter
    (fun (src, self) ->
      let used =
        Hashtbl.fold
          (fun key srcs acc ->
            acc
            || ((key = self || starts_with ~prefix:(self ^ ".") key)
               && List.exists (fun s -> s <> src && is_program s) srcs))
          refs false
      in
      if not used then
        error "%s: module %s is referenced by no other program unit" src (module_name self))
    !modules;
  List.iter
    (fun d ->
      let own = own_ml d.mli in
      let check ~key name ~program ~tested ~what ~fix =
        Hashtbl.replace declared key ();
        Hashtbl.replace declared name ();
        match hook ~key name with
        | Some (_, test, line) ->
          if program then
            error "%s:%d: %s has a program user now; remove it from the list" hooks_file line name
          else if not (tested test) then error "%s:%d: %s is not %s by %s" hooks_file line name what test
        | None -> if not program then error "%s: %s" d.mli fix
      in
      let program = List.exists (fun s -> s <> own && is_program s) (users d.key) in
      check ~key:d.key d.short ~program ~tested:(fun t -> List.mem t (users d.key)) ~what:"referenced"
        ~fix:(Printf.sprintf "val %s is referenced by no other program unit (a test hook goes in %s)"
                d.short hooks_file);
      List.iter
        (fun l ->
          let key = d.key ^ "?" ^ l in
          let name = d.short ^ "?" ^ l in
          check ~key name ~program:(is_passed key)
            ~tested:(fun t -> List.exists (fun (s, _) -> s = t) (Hashtbl.find_all passes key))
            ~what:"passed"
            ~fix:(Printf.sprintf "%s: ?%s is passed by no program application (make it a constant, or list %s in %s)"
                    d.short l name hooks_file))
        d.labels)
    !decls;
  List.iter
    (fun (name, _, line) ->
      if not (Hashtbl.mem declared name) then
        error "%s:%d: %s is not a top-level val of lib/ or an optional parameter of one" hooks_file
          line name)
    hooks;
  match List.sort_uniq compare !errors with
  | [] ->
    Printf.printf
      "check-dead-exports: %d modules, %d vals and %d optional parameters each have a program user or a listed test hook\n"
      (List.length !modules) (List.length !decls)
      (List.fold_left (fun n d -> n + List.length d.labels) 0 !decls)
  | errs ->
    List.iter (fun e -> print_endline ("ERROR: " ^ e)) errs;
    Printf.printf "check-dead-exports: %d errors\n" (List.length errs);
    exit 1
