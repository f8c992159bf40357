(** Semantic checks for MiniFort programs.

    A program must pass [check] before being fed to the lowering and analysis
    pipeline; the pipeline assumes well-formedness (e.g. that every call
    resolves and arities match) and would otherwise raise. *)

type error = {
  msg : string;
  where : string;  (** procedure name, or "<program>" *)
  pos : Ast.pos;
}

let pp_error ppf { msg; where; pos } =
  Fmt.pf ppf "%s at %a: %s" where Ast.pp_pos pos msg

exception Illformed of error list

(** Variable classification, shared with lowering. *)
type var_class = Formal of int | Global | Local

(** [classify ~globals ~formals x] resolves identifier [x] inside a procedure
    with the given formals, under the program's global declarations.
    Formals shadow globals of the same name. *)
let classify ~globals ~formals x : var_class =
  let rec find_formal i = function
    | [] -> None
    | f :: _ when String.equal f x -> Some i
    | _ :: tl -> find_formal (i + 1) tl
  in
  match find_formal 0 formals with
  | Some i -> Formal i
  | None -> if List.mem x globals then Global else Local

(** Hashed variant of {!classify} for per-procedure bulk resolution: the
    lookup tables are built once, so each query is O(1) instead of a list
    scan over the program's globals.  Identical results to {!classify}. *)
let classifier ~globals ~formals : string -> var_class =
  let tbl = Hashtbl.create (4 * (List.length formals + 1)) in
  List.iter (fun g -> Hashtbl.replace tbl g Global) globals;
  (* Formals shadow globals of the same name; first occurrence wins, as in
     [classify]'s left-to-right scan. *)
  List.iteri
    (fun i f -> if not (Hashtbl.mem tbl f) || Hashtbl.find tbl f = Global
                then Hashtbl.replace tbl f (Formal i))
    formals;
  fun x ->
    match Hashtbl.find_opt tbl x with Some c -> c | None -> Local

(* The checks local to one procedure.  [lookup] resolves a procedure name
   in the whole program; [report] records an error. *)
let check_proc_with ~report ~(lookup : string -> Ast.proc option)
    (p : Ast.proc) =
  let err ~pos fmt =
    Fmt.kstr (fun msg -> report { msg; where = p.pname; pos }) fmt
  in
  let rec dup_formals seen = function
    | [] -> ()
    | f :: tl ->
        if List.mem f seen then err ~pos:p.ppos "duplicate formal '%s'" f;
        dup_formals (f :: seen) tl
  in
  dup_formals [] p.formals;
  List.iter
    (fun f ->
      if lookup f <> None then
        err ~pos:p.ppos "formal '%s' has the same name as a procedure" f)
    p.formals;
  Ast.iter_stmts
    (fun s ->
      match s.sdesc with
      | Ast.Call (q, args) -> (
          match lookup q with
          | None -> err ~pos:s.spos "call to undefined procedure '%s'" q
          | Some callee ->
              let want = List.length callee.formals in
              let got = List.length args in
              if want <> got then
                err ~pos:s.spos
                  "call to '%s' passes %d argument(s), expected %d" q got want)
      | Ast.Assign (x, _) ->
          if lookup x <> None then
            err ~pos:s.spos "assignment to '%s' which is a procedure name" x
      | Ast.If _ | Ast.While _ | Ast.Return | Ast.Print _ -> ())
    p.body

(* An error accumulator: where the checks report, and the result in
   report order. *)
let collector () =
  let errs = ref [] in
  let report e = errs := e :: !errs in
  let result () = match List.rev !errs with [] -> Ok () | es -> Error es in
  (report, result)

let check (prog : Ast.program) : (unit, error list) result =
  let report, result = collector () in
  let err ?(pos = Ast.no_pos) where fmt =
    Fmt.kstr (fun msg -> report { msg; where; pos }) fmt
  in
  let where_prog = "<program>" in
  (* Duplicate globals *)
  let rec dup_check seen = function
    | [] -> ()
    | g :: tl ->
        if List.mem g seen then err where_prog "duplicate global '%s'" g;
        dup_check (g :: seen) tl
  in
  dup_check [] prog.globals;
  (* Block data refers to declared globals, no duplicate initialisation *)
  let rec bd_check seen = function
    | [] -> ()
    | (g, _) :: tl ->
        if not (List.mem g prog.globals) then
          err where_prog "block data initialises undeclared global '%s'" g;
        if List.mem g seen then
          err where_prog "global '%s' initialised twice in block data" g;
        bd_check (g :: seen) tl
  in
  bd_check [] prog.blockdata;
  (* Procedure table; duplicate procedures *)
  let ptable = Hashtbl.create 16 in
  List.iter
    (fun (p : Ast.proc) ->
      if Hashtbl.mem ptable p.pname then
        err ~pos:p.ppos where_prog "duplicate procedure '%s'" p.pname
      else Hashtbl.add ptable p.pname p)
    prog.procs;
  (* Entry point *)
  (match Hashtbl.find_opt ptable prog.main with
  | None -> err where_prog "missing entry procedure '%s'" prog.main
  | Some m ->
      if m.formals <> [] then
        err ~pos:m.ppos where_prog "entry procedure '%s' must take no formals"
          prog.main);
  (* Per-procedure checks *)
  List.iter
    (check_proc_with ~report ~lookup:(Hashtbl.find_opt ptable))
    prog.procs;
  result ()

(** [check_proc ~lookup p] runs only the checks local to procedure [p]
    (formals, call resolution and arity, assignments to procedure names),
    resolving names through [lookup].  For a [check]-clean program whose
    procedure [p] replaced one of the same name and formals, the edited
    program passes {!check} iff [check_proc] passes, with the same errors:
    the program-level checks (globals, block data, duplicate procedures,
    the entry point) and every other procedure's checks see nothing that
    changed. *)
let check_proc ~lookup (p : Ast.proc) : (unit, error list) result =
  let report, result = collector () in
  check_proc_with ~report ~lookup p;
  result ()

(** [check_exn prog] raises {!Illformed} when [check] reports errors. *)
let check_exn prog =
  match check prog with Ok () -> () | Error es -> raise (Illformed es)

let check_proc_exn ~lookup p =
  match check_proc ~lookup p with
  | Ok () -> ()
  | Error es -> raise (Illformed es)

let errors_to_string es = Fmt.str "%a" (Fmt.list ~sep:Fmt.cut pp_error) es
