(* The surface guard: every value exported by a [lib/**/*.mli] must be
   referenced from some other file, and every optional parameter of an
   exported function must be passed by some call. It parses the
   interfaces and every [.ml] under lib, bin, bench, perfbench, examples
   and test, prints one line per finding and exits 1 if there is any.

   A reference is [M.name], where [M] ends in the value's module path
   (after expanding [module A = ...M] aliases), or an unqualified [name]
   in a file that opens [M]. A call inside the value's own unit may also
   be unqualified. Tests count as callers.

   Usage: surface.exe, run from the repository root. *)

let roots = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

let rec files ext dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then
           if f.[0] = '.' || f = "_build" then [] else files ext p
         else if Filename.check_suffix f ext then [ p ]
         else [])

let read path = In_channel.with_open_bin path In_channel.input_all

let lexbuf path =
  let lb = Lexing.from_string (read path) in
  Lexing.set_filename lb path;
  lb

type export = {
  path : string list;  (** module path, unit first *)
  name : string;
  impl : string;  (** the unit's [.ml] *)
  line : int;
  opts : string list;
  mutable referenced : bool;
  mutable passed : string list;
}

let exports : (string, export) Hashtbl.t = Hashtbl.create 1024

let rec optionals (t : Parsetree.core_type) =
  match t.ptyp_desc with
  | Ptyp_arrow (Optional l, _, r) -> l :: optionals r
  | Ptyp_arrow (_, _, r) | Ptyp_poly (_, r) -> optionals r
  | _ -> []

let rec collect impl path (sg : Parsetree.signature) =
  List.iter
    (fun (it : Parsetree.signature_item) ->
      match it.psig_desc with
      | Psig_value v ->
          Hashtbl.add exports v.pval_name.txt
            { path; name = v.pval_name.txt; impl;
              line = v.pval_loc.loc_start.pos_lnum;
              opts = optionals v.pval_type; referenced = false; passed = [] }
      | Psig_module { pmd_name = { txt = Some m; _ };
                      pmd_type = { pmty_desc = Pmty_signature s; _ }; _ } ->
          collect impl (path @ [ m ]) s
      | _ -> ())
    sg

let rec flatten : Longident.t -> string list = function
  | Lident s -> [ s ]
  | Ldot (p, s) -> flatten p @ [ s ]
  | Lapply (p, _) -> flatten p

let rec is_suffix s l =
  List.length s <= List.length l
  && (s = l || match l with [] -> false | _ :: t -> is_suffix s t)

(* The exports named [name] whose module path [p] designates; on a tie
   between e.g. [Trace] and [Model.Trace], all of them. *)
let resolve p name =
  let cands =
    Hashtbl.find_all exports name
    |> List.filter_map (fun e ->
           if is_suffix e.path p || is_suffix p e.path then
             Some (min (List.length p) (List.length e.path), e)
           else None)
  in
  let best = List.fold_left (fun m (n, _) -> max m n) 0 cands in
  List.filter_map (fun (n, e) -> if n = best then Some e else None) cands

let scan file =
  let ast = Parse.implementation (lexbuf file) in
  let aliases = Hashtbl.create 16 and opens = ref [] in
  let expand p =
    match p with
    | m :: rest when Hashtbl.mem aliases m -> Hashtbl.find aliases m @ rest
    | _ -> p
  in
  let module_ident (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ }
    | Pmod_constraint ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _) ->
        Some (expand (flatten txt))
    | _ -> None
  in
  let bind name me =
    match (name, module_ident me) with
    | Some n, Some p -> Hashtbl.replace aliases n p
    | _ -> ()
  in
  let open_ (od : Parsetree.open_declaration) =
    Option.iter (fun p -> opens := p :: !opens) (module_ident od.popen_expr)
  in
  (* Pass 1: aliases and opens, for the whole file. *)
  let default = Ast_iterator.default_iterator in
  let pass1 =
    { default with
      module_binding = (fun it mb -> bind mb.pmb_name.txt mb.pmb_expr;
                         default.module_binding it mb);
      open_declaration = (fun it od -> open_ od;
                           default.open_declaration it od);
      expr = (fun it e ->
        (match e.pexp_desc with
         | Pexp_letmodule ({ txt; _ }, me, _) -> bind txt me
         | _ -> ());
        default.expr it e) }
  in
  pass1.structure pass1 ast;
  (* Pass 2: references and labelled applications. *)
  let targets ~call (lid : Longident.t) =
    match lid with
    | Lident n ->
        let own =
          if call then
            List.filter (fun e -> e.impl = file) (Hashtbl.find_all exports n)
          else []
        in
        own @ List.concat_map (fun p -> resolve p n) !opens
    | _ -> (
        match List.rev (flatten lid) with
        | n :: rp -> resolve (expand (List.rev rp)) n
        | [] -> [])
  in
  let pass2 =
    { default with
      expr = (fun it e ->
        (match e.pexp_desc with
         | Pexp_ident { txt; _ } ->
             List.iter
               (fun x -> if x.impl <> file then x.referenced <- true)
               (targets ~call:false txt)
         | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
             let labels =
               List.filter_map
                 (fun ((l : Asttypes.arg_label), _) ->
                   match l with
                   | Labelled l | Optional l -> Some l
                   | Nolabel -> None)
                 args
             in
             List.iter
               (fun x -> x.passed <- labels @ x.passed)
               (targets ~call:true txt)
         | _ -> ());
        default.expr it e) }
  in
  pass2.structure pass2 ast

let () =
  List.concat_map (files ".mli") [ "lib" ]
  |> List.iter (fun mli ->
         let unit =
           String.capitalize_ascii (Filename.remove_extension
                                      (Filename.basename mli))
         in
         collect (Filename.remove_extension mli ^ ".ml") [ unit ]
           (Parse.interface (lexbuf mli)));
  List.iter scan (List.concat_map (files ".ml") roots);
  let all =
    Hashtbl.fold (fun _ e acc -> e :: acc) exports []
    |> List.sort (fun a b -> compare (a.impl, a.line) (b.impl, b.line))
  in
  let findings = ref 0 in
  let report e fmt =
    incr findings;
    Printf.printf ("%si:%d: %s " ^^ fmt ^^ "\n") e.impl e.line
      (String.concat "." (e.path @ [ e.name ]))
  in
  List.iter
    (fun e ->
      if not e.referenced then
        report e "is referenced nowhere outside %s" e.impl;
      List.iter
        (fun l ->
          if not (List.mem l e.passed) then report e "?%s is never passed" l)
        e.opts)
    all;
  let opts = List.fold_left (fun n e -> n + List.length e.opts) 0 all in
  Printf.printf "surface: %d exports, %d optional parameters, %d findings\n"
    (List.length all) opts !findings;
  if !findings > 0 then exit 1
