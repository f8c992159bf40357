(* The three workloads.  Their static inputs (analyze, verify and session
   programs) have a fixed shape and fixed literals: the seed acts only on
   the session traffic (see [Traffic]), so the work a run measures does
   not depend on the seed. *)

open Fsicp_lang
open Fsicp_workloads
module B = Builder

type kind = Paper_suite | Deep_shapes | Edit_session

let all = [ Paper_suite; Deep_shapes; Edit_session ]

let name = function
  | Paper_suite -> "paper-suite"
  | Deep_shapes -> "deep-shapes"
  | Edit_session -> "edit-session"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) all

type inputs = {
  analyze : (string * string) list;  (** (label, MiniFort source) *)
  verify : (string * string) list;
  session : string * string;  (** the program the engine serves *)
}

let text label prog = (label, Pretty.program_to_string prog)

(* ------------------------------------------------------------------ *)
(* paper-suite                                                         *)
(* ------------------------------------------------------------------ *)

(* The session serves the suite's largest program. *)
let paper_suite () =
  let progs =
    List.map (fun (b : Spec.benchmark) -> text b.Spec.b_name (Spec.program b))
      Spec.suite
  in
  let procs (b : Spec.benchmark) = b.Spec.b_profile.Generator.g_procs in
  let largest =
    List.fold_left
      (fun c b -> if procs b > procs c then b else c)
      (List.hd Spec.suite) Spec.suite
  in
  { analyze = progs; verify = progs;
    session = List.find (fun (l, _) -> l = largest.Spec.b_name) progs }

(* ------------------------------------------------------------------ *)
(* deep-shapes                                                         *)
(* ------------------------------------------------------------------ *)

(* Sizes of the four huge procedure bodies. *)
let if_depth = 300
let while_depth = 100
let straight_len = 4000
let join_width = 400

(* Every shape procedure is called from two sites with different first
   arguments, so its formal [a] is ⊥ and every branch stays executable:
   the literal values never prune the CFG the kernel walks. *)
let i = Ast.int
let v = Ast.var
let ( <-- ) = Ast.assign
let add a b = Ast.binary Ops.Add a b
let gt a b = Ast.binary Ops.Gt a b
let lt a b = Ast.binary Ops.Lt a b

let ifnest () =
  let rec nest k =
    if k = if_depth then [ "x" <-- add (v "x") (i 1) ]
    else
      [
        "x" <-- add (v "x") (i (k + 1));
        Ast.if_ (gt (v "a") (i k)) (nest (k + 1))
          [ "y" <-- add (v "y") (i (k + 1)) ];
      ]
  in
  B.proc "ifnest" [ "a"; "b" ]
    ([ "x" <-- i 1; "y" <-- v "b" ]
    @ nest 0
    @ [ Ast.print (v "x"); Ast.print (v "y") ])

(* Each loop runs once under the interpreter; the analysis sees a φ for
   every enclosing loop's induction variable at every header. *)
let whilenest ?(depth = while_depth) () =
  let iv k = "i" ^ string_of_int k in
  let rec nest k =
    if k = depth then [ "s" <-- add (v "s") (v "a") ]
    else
      [
        iv k <-- i 0;
        Ast.while_ (lt (v (iv k)) (i 1))
          (nest (k + 1) @ [ iv k <-- add (v (iv k)) (i 1) ]);
      ]
  in
  B.proc "whilenest" [ "a"; "b" ]
    ([ "s" <-- v "b" ] @ nest 0 @ [ Ast.print (v "s") ])

(* Long straight-line code over a rotating window of locals; every
   seventh statement mixes in the ⊥ formal, the rest stay constant. *)
let straight () =
  let width = 64 in
  let t k = "t" ^ string_of_int (k mod width) in
  let stmt k =
    if k mod 7 = 0 then t k <-- add (v (t (k + width - 1))) (v "a")
    else t k <-- add (v (t (k + width - 1))) (i (k mod 13))
  in
  B.proc "straight" [ "a"; "b" ]
    (List.init width (fun k -> t k <-- add (v "b") (v "g1"))
    @ List.init straight_len stmt
    @ [
        Ast.print (v (t 0));
        Ast.print (v (t (straight_len - 1)));
        "g0" <-- v (t 1);
      ])

(* One diamond whose arms assign [join_width] variables each: the join
   block carries that many φs.  Even-numbered variables agree on both
   arms (constant after the join), odd ones differ (⊥). *)
let join () =
  let w k = "w" ^ string_of_int k in
  let arm d =
    List.init join_width (fun k ->
        w k <-- i (if k mod 2 = 0 then k else k + d))
  in
  B.proc "join" [ "a"; "b" ]
    ([ Ast.if_ (gt (v "a") (i 0)) (arm 1) (arm 2); "s" <-- v "b" ]
    @ List.init join_width (fun k -> "s" <-- add (v "s") (v (w k)))
    @ [ Ast.print (v "s") ])

(* [Fold] is exponential in loop-nest depth (about 2x per level; 8 s at
   depth 20), so verify gets a copy whose while-nest is shallow. *)
let verify_while_depth = 12

let deep_program ?while_depth () =
  let shapes = [ "ifnest"; "whilenest"; "straight"; "join" ] in
  let main =
    B.proc "main" []
      (List.concat_map
         (fun p -> [ Ast.call p [ i 1; i 5 ]; Ast.call p [ i 2; i 5 ] ])
         shapes
      @ [ Ast.print (v "g0") ])
  in
  B.program ~globals:[ "g0" ] ~blockdata:[ ("g1", Value.Int 5) ]
    [ main; ifnest (); whilenest ?depth:while_depth (); straight (); join () ]

let deep_shapes () =
  let p = text "deep-shapes" (deep_program ()) in
  let shallow =
    text "deep-shapes-shallow" (deep_program ~while_depth:verify_while_depth ())
  in
  { analyze = [ p ]; verify = [ shallow ]; session = p }

(* ------------------------------------------------------------------ *)
(* edit-session                                                        *)
(* ------------------------------------------------------------------ *)

(* The corpus seed is fixed: a different seed would give the mixed
   family a different shape (branch count varies by 10x across seeds). *)
let corpus_seed = 1
let session_procs = 3000

(* Translation validation is super-linear in corpus size, so verify runs
   on a smaller corpus of the same family. *)
let verify_procs = 300

let mixed procs =
  Scale.generate
    { Scale.sp_family = Scale.Mixed; sp_procs = procs; sp_seed = corpus_seed }

let edit_session () =
  let corpus = text "mixed-3000" (mixed session_procs) in
  { analyze = [ corpus ]; verify = [ text "mixed-300" (mixed verify_procs) ];
    session = corpus }

let inputs = function
  | Paper_suite -> paper_suite ()
  | Deep_shapes -> deep_shapes ()
  | Edit_session -> edit_session ()

(* ------------------------------------------------------------------ *)
(* Shape                                                               *)
(* ------------------------------------------------------------------ *)

type shape = {
  procs : int;
  stmts : int;
  branches : int;
  call_sites : int;
  max_depth : int;  (** deepest if/while nesting *)
}

let shape (p : Ast.program) : shape =
  let stmts = ref 0 and branches = ref 0 and calls = ref 0 in
  let depth = ref 0 in
  let rec walk d body =
    List.iter
      (fun (s : Ast.stmt) ->
        incr stmts;
        match s.Ast.sdesc with
        | Ast.If (_, t, e) ->
            incr branches;
            depth := max !depth (d + 1);
            walk (d + 1) t;
            walk (d + 1) e
        | Ast.While (_, b) ->
            incr branches;
            depth := max !depth (d + 1);
            walk (d + 1) b
        | Ast.Call _ -> incr calls
        | Ast.Assign _ | Ast.Return | Ast.Print _ -> ())
      body
  in
  List.iter (fun (pr : Ast.proc) -> walk 0 pr.Ast.body) p.Ast.procs;
  { procs = List.length p.Ast.procs; stmts = !stmts; branches = !branches;
    call_sites = !calls; max_depth = !depth }

let pp_shape ppf s =
  Fmt.pf ppf "procs=%d stmts=%d branches=%d calls=%d depth=%d" s.procs s.stmts
    s.branches s.call_sites s.max_depth
