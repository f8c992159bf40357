(** Tests for the incremental {!Engine}: edit routing (incremental vs
    rebuild), byte-identity of incremental solutions against from-scratch
    solves, O(cone) work per shape-preserving edit (by trace counters),
    per-procedure well-formedness checks, digest independence from
    interning order, SCC memo reuse across edit→re-solve cycles (hits on
    no-op edits, evictions under churn), {!Context.reset_scc_memos}, and
    an in-suite edit-sequence oracle smoke at [jobs ∈ {1, 4}]. *)

open Fsicp_lang
open Fsicp_core
module Callgraph = Fsicp_callgraph.Callgraph
module Prog = Fsicp_prog.Prog
module Scale = Fsicp_workloads.Scale
module Trace = Fsicp_trace.Trace
module Scc = Fsicp_scc.Scc
module Oracle = Fsicp_oracle.Oracle

let parse src =
  match Parser.program_of_string src with
  | p -> p
  | exception Parser.Error (m, _) -> Alcotest.failf "parse error: %s" m

(* A procedure edit payload: a procs-only source, first procedure taken. *)
let proc_of src =
  match (parse src).Ast.procs with
  | p :: _ -> p
  | [] -> Alcotest.fail "no procedure in edit source"

let base_src =
  {|
global g;
proc main() { g = 1; call f(10); print g; }
proc f(n) { x = n + 2; g = g + x; call h(x); }
proc h(y) { g = g + y; }
|}

let f_with k =
  proc_of
    (Printf.sprintf "proc f(n) { x = n + %d; g = g + x; call h(x); }" k)

(* Counter totals under tracing; Engine work only shows up when enabled. *)
let with_trace f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) f

let digest_of_fresh ?(jobs = 1) prog =
  let ctx = Context.create ~jobs prog in
  Solution.digest (Fs_icp.solve ~jobs ~fi:(Fi_icp.solve ctx) ctx)

let check_matches_scratch msg e =
  Alcotest.(check string)
    msg
    (digest_of_fresh (Engine.context e).Context.prog)
    (Solution.digest (Engine.solution e))

(* -- edit routing --------------------------------------------------------- *)

let test_incremental_route () =
  let e = Engine.create ~jobs:1 (parse base_src) in
  (match Engine.edit_proc ~jobs:1 e (f_with 5) with
  | Engine.Incremental { dirty; total } ->
      Alcotest.(check int) "total reachable" 3 total;
      (* f and its downstream cone (h); main is upstream and clean. *)
      Alcotest.(check int) "dirty cone" 2 dirty
  | Engine.Rebuilt why -> Alcotest.failf "unexpected rebuild: %s" why);
  check_matches_scratch "incremental edit = from-scratch" e

let test_rebuild_on_shape_change () =
  let e = Engine.create ~jobs:1 (parse base_src) in
  (* Dropping the call to h changes f's callee sequence: a shape change. *)
  match Engine.edit_proc ~jobs:1 e (proc_of "proc f(n) { g = g + n; }") with
  | Engine.Rebuilt _ -> check_matches_scratch "rebuild = from-scratch" e
  | Engine.Incremental _ ->
      Alcotest.fail "shape-changing edit took the incremental route"

let test_rebuild_on_new_proc () =
  let e = Engine.create ~jobs:1 (parse base_src) in
  match Engine.edit_proc ~jobs:1 e (proc_of "proc fresh(a) { print a; }") with
  | Engine.Rebuilt _ -> check_matches_scratch "new proc = from-scratch" e
  | Engine.Incremental _ ->
      Alcotest.fail "new procedure took the incremental route"

let test_stats_track_edits () =
  let e = Engine.create ~jobs:1 (parse base_src) in
  ignore (Engine.edit_proc ~jobs:1 e (f_with 5));
  ignore (Engine.edit_proc ~jobs:1 e (proc_of "proc f(n) { g = g + n; }"));
  let get k = List.assoc k (Engine.stats e) in
  Alcotest.(check int) "edits" 2 (get "edits");
  Alcotest.(check int) "incremental_edits" 1 (get "incremental_edits");
  Alcotest.(check int) "rebuilds" 1 (get "rebuilds")

(* -- O(cone) work per edit ------------------------------------------------- *)

(* Both solutions of the engine equal fresh solves of its program. *)
let check_both_match_scratch msg e =
  let ctx = Context.create ~jobs:1 (Engine.context e).Context.prog in
  let fi = Fi_icp.solve ctx in
  Alcotest.(check string)
    (msg ^ " (fi)") (Solution.digest fi)
    (Solution.digest (Engine.fi_solution e));
  Alcotest.(check string)
    (msg ^ " (fs)")
    (Solution.digest (Fs_icp.solve ~jobs:1 ~fi ctx))
    (Solution.digest (Engine.solution e))

(* The deterministic counters an incremental edit moves, as deltas. *)
let edit_counters e p =
  let names =
    [ "fi.patch.reboxed"; "fs.patch.rows"; "fs.resolve.reused";
      "engine.sema.full" ]
  in
  let before = List.map Trace.counter_total names in
  let outcome = Engine.edit_proc ~jobs:1 e p in
  let delta =
    List.map2 (fun name b -> (name, Trace.counter_total name - b)) names before
  in
  (outcome, fun name -> List.assoc name delta)

(* Every body integer literal shifted by one (the shape stays). *)
let bump_literals (p : Ast.proc) =
  let rec expr (x : Ast.expr) =
    match x with
    | Ast.Const (Value.Int k) -> Ast.Const (Value.Int (k + 1))
    | Ast.Const _ | Ast.Var _ -> x
    | Ast.Unary (o, a) -> Ast.Unary (o, expr a)
    | Ast.Binary (o, a, b) -> Ast.Binary (o, expr a, expr b)
  in
  let rec stmt (st : Ast.stmt) =
    let d =
      match st.Ast.sdesc with
      | Ast.Assign (x, v) -> Ast.Assign (x, expr v)
      | Ast.If (c, a, b) -> Ast.If (expr c, List.map stmt a, List.map stmt b)
      | Ast.While (c, b) -> Ast.While (expr c, List.map stmt b)
      | Ast.Call (q, args) -> Ast.Call (q, List.map expr args)
      | Ast.Print v -> Ast.Print (expr v)
      | Ast.Return -> Ast.Return
    in
    { st with Ast.sdesc = d }
  in
  { p with Ast.body = List.map stmt p.Ast.body }

(* On a 2000-procedure corpus, a literal edit of a leaf procedure must do
   work proportional to its cone, not to the program: the re-boxed FI
   rows, the FS rows written and the whole-program Sema checks are
   counted, so a slide back to O(program) fails here without any
   wall-clock threshold.  Every changed FI row belongs to a cone member
   (a changed record's callee is forward-reachable from the edit or seeds
   the cone over its back edge), so both row counts are at most two per
   cone member. *)
let test_leaf_edit_is_o_cone () =
  let prog =
    Scale.generate
      { Scale.sp_family = Scale.Mixed; sp_procs = 2000; sp_seed = 1 }
  in
  let e = Engine.create ~jobs:1 prog in
  let pcg = (Engine.context e).Context.pcg in
  let leaf =
    List.find
      (fun (p : Ast.proc) ->
        Callgraph.is_reachable pcg p.Ast.pname && Ast.call_sites p = [])
      prog.Ast.procs
  in
  let edited = bump_literals leaf in
  let edited =
    { edited with Ast.body = edited.Ast.body @ [ Ast.print (Ast.int 7) ] }
  in
  match edit_counters e edited with
  | Engine.Rebuilt why, _ -> Alcotest.failf "unexpected rebuild: %s" why
  | Engine.Incremental { dirty; total }, delta ->
      Alcotest.(check bool)
        "corpus has >= 2000 procedures" true (total >= 2000);
      Alcotest.(check int) "a leaf's cone is itself" 1 dirty;
      Alcotest.(check bool)
        (Printf.sprintf "FI rows re-boxed (%d) <= 2 x cone"
           (delta "fi.patch.reboxed"))
        true
        (delta "fi.patch.reboxed" <= 2 * dirty);
      Alcotest.(check int) "FS rows written = 2 x cone" (2 * dirty)
        (delta "fs.patch.rows");
      Alcotest.(check int) "FS rows reused" (total - dirty)
        (delta "fs.resolve.reused");
      Alcotest.(check int) "no whole-program Sema check" 0
        (delta "engine.sema.full");
      check_both_match_scratch "leaf edit = from-scratch" e

(* A literal argument edit reaches callees, and through pass-through
   formals their callees: the FI rows it re-boxes stay within the cone. *)
let test_literal_arg_edit_within_cone () =
  let prog =
    Scale.generate
      { Scale.sp_family = Scale.Mixed; sp_procs = 2000; sp_seed = 1 }
  in
  let e = Engine.create ~jobs:1 prog in
  let pcg = (Engine.context e).Context.pcg in
  let has_literal_arg (p : Ast.proc) =
    List.exists
      (fun (_, args, _) ->
        List.exists (function Ast.Const _ -> true | _ -> false) args)
      (Ast.call_sites p)
  in
  let caller =
    List.find
      (fun (p : Ast.proc) ->
        Callgraph.is_reachable pcg p.Ast.pname && has_literal_arg p)
      (List.rev prog.Ast.procs)
  in
  match edit_counters e (bump_literals caller) with
  | Engine.Rebuilt why, _ -> Alcotest.failf "unexpected rebuild: %s" why
  | Engine.Incremental { dirty; total }, delta ->
      Alcotest.(check bool)
        (Printf.sprintf "cone (%d) is a small part of %d" dirty total)
        true
        (4 * dirty < total);
      Alcotest.(check bool)
        (Printf.sprintf "FI rows re-boxed (%d) <= 2 x cone (%d)"
           (delta "fi.patch.reboxed") dirty)
        true
        (delta "fi.patch.reboxed" <= 2 * dirty);
      Alcotest.(check int) "FS rows written = 2 x cone" (2 * dirty)
        (delta "fs.patch.rows");
      Alcotest.(check int) "no whole-program Sema check" 0
        (delta "engine.sema.full");
      check_both_match_scratch "literal argument edit = from-scratch" e

(* A literal edit in [main] changes [f]'s formal, which [f] passes through
   to [g]: the patch must re-box [f]'s entry, [f]'s call records (the
   pass-through argument) and [g]'s entry, not just [main]'s row. *)
let test_pass_through_rows_reboxed () =
  let src k =
    Printf.sprintf
      {|
proc main() { call f(%d); }
proc f(n) { call g(n); }
proc g(m) { print m; }
|}
      k
  in
  let e = Engine.create ~jobs:1 (parse (src 3)) in
  match edit_counters e (proc_of "proc main() { call f(4); }") with
  | Engine.Rebuilt why, _ -> Alcotest.failf "unexpected rebuild: %s" why
  | Engine.Incremental _, delta ->
      (* main's row; f's entry and row; g's entry *)
      Alcotest.(check int) "FI rows re-boxed" 4 (delta "fi.patch.reboxed");
      check_both_match_scratch "pass-through edit = from-scratch" e;
      Alcotest.(check bool)
        "g's formal follows the edit" true
        (Fsicp_scc.Lattice.equal
           (Solution.formal_value (Engine.fi_solution e) "g" 0)
           (Fsicp_scc.Lattice.Const (Value.Int 4)))

(* -- well-formedness checks on edits -------------------------------------- *)

(* Same name and formals: only the edited procedure is checked, with the
   errors a whole-program check of the edited program reports, and the
   engine is untouched.  New formals fall back to the whole program. *)
let test_edit_checks_only_the_procedure () =
  let prog = parse base_src in
  let e = Engine.create ~jobs:1 prog in
  let before = Solution.digest (Engine.solution e) in
  let bad =
    proc_of "proc f(n) { x = n + 2; g = g + x; call h(x, 1); call k(); }"
  in
  let full = Trace.counter_total "engine.sema.full" in
  let expected =
    match
      Sema.check
        {
          prog with
          Ast.procs =
            List.map
              (fun (q : Ast.proc) ->
                if String.equal q.Ast.pname "f" then bad else q)
              prog.Ast.procs;
        }
    with
    | Ok () -> Alcotest.fail "edited program should be ill-formed"
    | Error es -> Sema.errors_to_string es
  in
  (match Engine.edit_proc ~jobs:1 e bad with
  | _ -> Alcotest.fail "ill-formed edit accepted"
  | exception Sema.Illformed es ->
      Alcotest.(check string)
        "same errors as a whole-program check" expected
        (Sema.errors_to_string es));
  Alcotest.(check int)
    "no whole-program check" full
    (Trace.counter_total "engine.sema.full");
  Alcotest.(check string)
    "engine untouched" before
    (Solution.digest (Engine.solution e));
  (match Engine.edit_proc ~jobs:1 e (proc_of "proc h(y, z) { g = y; }") with
  | _ -> Alcotest.fail "arity-changing edit accepted"
  | exception Sema.Illformed _ -> ());
  Alcotest.(check int)
    "new formals: whole-program check" (full + 1)
    (Trace.counter_total "engine.sema.full")

(* -- digest ---------------------------------------------------------------- *)

(* The digest lists globals by name, whatever order the process interned
   them in: here the later name is interned first. *)
let test_digest_globals_in_name_order () =
  let b = Prog.Var.intern "zz_digest_order_b" in
  let a = Prog.Var.intern "zz_digest_order_a" in
  Alcotest.(check bool) "b interned before a" true (Prog.Var.compare b a < 0);
  let prog =
    parse
      {|
global zz_digest_order_a, zz_digest_order_b;
blockdata { zz_digest_order_a = 1; zz_digest_order_b = 2; }
proc main() { call f(); }
proc f() { print zz_digest_order_a + zz_digest_order_b; }
|}
  in
  let ctx = Context.create ~jobs:1 prog in
  let d = Solution.digest (Fs_icp.solve ~jobs:1 ctx) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"entry f:" l)
      (String.split_on_char '\n' d)
  in
  Alcotest.(check string)
    "globals in name order" "entry f: zz_digest_order_a=1 zz_digest_order_b=2"
    line

(* -- SCC memo behaviour across edit→re-solve cycles ----------------------- *)

(* A no-op edit (the procedure resubmitted verbatim) still re-drives the
   dirty cone, and every re-driven procedure must hit its SCC entry-vector
   memo: same entry vector, same memoised result, zero evictions. *)
let test_noop_edit_hits_memo () =
  with_trace (fun () ->
      let e = Engine.create ~jobs:1 (parse base_src) in
      let before_hits = Trace.counter_total "scc.memo_hits" in
      (match Engine.edit_proc ~jobs:1 e (f_with 2) with
      | Engine.Incremental { dirty; _ } ->
          Alcotest.(check int) "no-op still re-drives the cone" 2 dirty
      | Engine.Rebuilt why -> Alcotest.failf "unexpected rebuild: %s" why);
      let hits = Trace.counter_total "scc.memo_hits" - before_hits in
      Alcotest.(check bool)
        (Printf.sprintf "memo hits on no-op edit (%d)" hits)
        true (hits > 0);
      Alcotest.(check int)
        "no evictions on no-op edit" 0
        (Trace.counter_total "scc.memo_evictions");
      check_matches_scratch "no-op edit = from-scratch" e)

(* Distinct literal edits give f's callee h a new entry vector each time;
   past the memo capacity the per-procedure memo must evict (the counter
   moves) while solutions stay exact. *)
let test_churn_evicts_memo () =
  with_trace (fun () ->
      let e = Engine.create ~jobs:1 (parse base_src) in
      for k = 1 to 12 do
        match Engine.edit_proc ~jobs:1 e (f_with k) with
        | Engine.Incremental _ -> ()
        | Engine.Rebuilt why -> Alcotest.failf "unexpected rebuild: %s" why
      done;
      let evictions = Trace.counter_total "scc.memo_evictions" in
      Alcotest.(check bool)
        (Printf.sprintf "churn evicts memo entries (%d)" evictions)
        true (evictions > 0);
      check_matches_scratch "post-churn = from-scratch" e)

let test_reset_scc_memos () =
  with_trace (fun () ->
      let prog = parse base_src in
      let ctx = Context.create ~jobs:1 prog in
      let fi = Fi_icp.solve ctx in
      let s1 = Fs_icp.solve ~jobs:1 ~fi ctx in
      Alcotest.(check bool)
        "memo populated after first solve" true
        (Scc.memo_size (Context.ssa ctx "f") > 0);
      let hits0 = Trace.counter_total "scc.memo_hits" in
      let s2 = Fs_icp.solve ~jobs:1 ~fi ctx in
      Alcotest.(check bool)
        "warm re-solve hits the memo" true
        (Trace.counter_total "scc.memo_hits" > hits0);
      Context.reset_scc_memos ctx;
      Alcotest.(check int)
        "reset empties every memo" 0
        (Scc.memo_size (Context.ssa ctx "f"));
      let hits1 = Trace.counter_total "scc.memo_hits" in
      let runs0 = Trace.counter_total "scc.runs" in
      let s3 = Fs_icp.solve ~jobs:1 ~fi ctx in
      Alcotest.(check int)
        "cold re-solve after reset: no memo hits" hits1
        (Trace.counter_total "scc.memo_hits");
      Alcotest.(check bool)
        "cold re-solve re-ran the kernels" true
        (Trace.counter_total "scc.runs" > runs0);
      Alcotest.(check string)
        "warm solution unchanged" (Solution.digest s1) (Solution.digest s2);
      Alcotest.(check string)
        "cold solution unchanged" (Solution.digest s1) (Solution.digest s3))

(* -- edit-sequence oracle smoke ------------------------------------------- *)

(* ISSUE acceptance: 200+ random edit sequences, each checked byte-identical
   at jobs 1 and 4 against from-scratch solves after every edit. *)
let test_edit_sequence_smoke () =
  let failures = ref [] in
  for seed = 0 to 199 do
    match Oracle.check_edit_sequence ~jobs:4 ~edits:5 seed with
    | Ok () -> ()
    | Error f -> failures := (seed, f) :: !failures
  done;
  match !failures with
  | [] -> ()
  | (seed, f) :: _ ->
      Alcotest.failf "%d seed(s) failed; first: seed %d — %a"
        (List.length !failures) seed Oracle.pp_failure f

let suite =
  [
    Alcotest.test_case "shape-preserving edit is incremental" `Quick
      test_incremental_route;
    Alcotest.test_case "shape change rebuilds" `Quick
      test_rebuild_on_shape_change;
    Alcotest.test_case "new procedure rebuilds" `Quick test_rebuild_on_new_proc;
    Alcotest.test_case "stats track edit routes" `Quick test_stats_track_edits;
    Alcotest.test_case "no-op edit hits SCC memos, no evictions" `Quick
      test_noop_edit_hits_memo;
    Alcotest.test_case "literal churn evicts SCC memos" `Quick
      test_churn_evicts_memo;
    Alcotest.test_case "reset_scc_memos forces cold kernels" `Quick
      test_reset_scc_memos;
    Alcotest.test_case "edit-sequence oracle: 200 seeds, jobs {1,4}" `Slow
      test_edit_sequence_smoke;
    Alcotest.test_case "leaf edit on 2000 procs is O(cone)" `Quick
      test_leaf_edit_is_o_cone;
    Alcotest.test_case "literal argument edit stays within its cone" `Quick
      test_literal_arg_edit_within_cone;
    Alcotest.test_case "pass-through rows are re-boxed" `Quick
      test_pass_through_rows_reboxed;
    Alcotest.test_case "edit checks only the edited procedure" `Quick
      test_edit_checks_only_the_procedure;
    Alcotest.test_case "digest lists globals in name order" `Quick
      test_digest_globals_in_name_order;
  ]
