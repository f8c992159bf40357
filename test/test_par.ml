(** Tests for the {!Fsicp_par.Par} primitives and for the determinism
    contract of the parallel pipeline: solving with any number of worker
    domains must produce exactly the same {!Solution.t} as the sequential
    path ([jobs = 1]), on every suite program and on generated programs
    including cyclic PCGs. *)

open Fsicp_core
open Fsicp_workloads
open Fsicp_par
module L = Fsicp_scc.Lattice

(* -- job-count parsing ---------------------------------------------------- *)

(* One case per class of bad input: parse_jobs must reject each with a
   message naming the offending value, never fall back silently. *)
let test_parse_jobs_accepts () =
  List.iter
    (fun (s, j) ->
      match Par.parse_jobs s with
      | Ok got -> Alcotest.(check int) (Printf.sprintf "parse %S" s) j got
      | Error m -> Alcotest.failf "parse_jobs %S rejected: %s" s m)
    [ ("1", 1); ("4", 4); ("  8  ", 8); ("128", 128) ]

let check_rejected s =
  match Par.parse_jobs s with
  | Ok j -> Alcotest.failf "parse_jobs %S wrongly accepted as %d" s j
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error for %S names the value (got %S)" s m)
        true
        (let mentions needle =
           let ln = String.length needle and lm = String.length m in
           let rec at i = i + ln <= lm && (String.sub m i ln = needle || at (i + 1)) in
           ln > 0 && at 0
         in
         mentions (String.trim s) || (String.trim s = "" && mentions "\"\""))

let test_parse_jobs_rejects_zero () = check_rejected "0"
let test_parse_jobs_rejects_negative () = check_rejected "-3"
let test_parse_jobs_rejects_garbage () = check_rejected "fuor"
let test_parse_jobs_rejects_empty () = check_rejected ""
let test_parse_jobs_rejects_float () = check_rejected "2.5"
let test_parse_jobs_rejects_trailing () = check_rejected "4x"

let with_env var value f =
  let old = Sys.getenv_opt var in
  (* putenv cannot unset: when the variable was absent, restore a value
     behaviourally identical to unset rather than the poisonous "". *)
  let restore =
    match old with
    | Some v -> v
    | None -> string_of_int (Domain.recommended_domain_count ())
  in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var restore) f

(* default_jobs must honour a good FSICP_JOBS and raise on a bad one —
   a typo'd env var must never quietly measure all-cores behaviour. *)
let test_default_jobs_env () =
  with_env "FSICP_JOBS" "3" (fun () ->
      Alcotest.(check int) "FSICP_JOBS=3 honoured" 3 (Par.default_jobs ()));
  List.iter
    (fun bad ->
      with_env "FSICP_JOBS" bad (fun () ->
          match Par.default_jobs () with
          | j -> Alcotest.failf "FSICP_JOBS=%S wrongly accepted as %d" bad j
          | exception Invalid_argument _ -> ()))
    [ "0"; "-1"; "fuor"; "2.5" ]

(* -- primitives ----------------------------------------------------------- *)

let test_parallel_init () =
  let f i = (i * 37) mod 101 in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "Array.init equivalent (jobs=%d)" jobs)
        (Array.init 200 f)
        (Par.parallel_init ~jobs 200 f))
    [ 1; 2; 4 ]

let test_map_list () =
  let l = List.init 123 Fun.id in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "List.map equivalent (jobs=%d)" jobs)
        (List.map (fun x -> x * x) l)
        (Par.map_list ~jobs (fun x -> x * x) l))
    [ 1; 2; 4 ]

let test_both () =
  List.iter
    (fun jobs ->
      let a, b = Par.both ~jobs (fun () -> 41) (fun () -> "x") in
      Alcotest.(check int) "first thunk" 41 a;
      Alcotest.(check string) "second thunk" "x" b)
    [ 1; 2 ]

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      match
        Par.parallel_init ~jobs 50 (fun i ->
            if i = 17 then failwith "boom" else i)
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m ->
          Alcotest.(check string)
            (Printf.sprintf "exception re-raised (jobs=%d)" jobs)
            "boom" m)
    [ 1; 4 ]

(* A diamond with a tail: 0 → {1,2} → 3 → 4, plus the skew edge 0 → 4. *)
let diamond_deps = [| []; [ 0 ]; [ 0 ]; [ 1; 2 ]; [ 3; 0 ] |]
let diamond_dependents = [| [ 1; 2; 4 ]; [ 3 ]; [ 3 ]; [ 4 ]; [] |]
let diamond_order = [| 0; 1; 2; 3; 4 |]

let test_wavefront_sequential_order () =
  (* jobs=1 must visit nodes in exactly the given topological order. *)
  let visited = ref [] in
  Par.wavefront ~jobs:1 ~order:diamond_order ~deps:diamond_deps
    ~dependents:diamond_dependents (fun i -> visited := i :: !visited);
  Alcotest.(check (list int))
    "sequential wavefront = order array" [ 0; 1; 2; 3; 4 ]
    (List.rev !visited)

let test_wavefront_respects_deps () =
  List.iter
    (fun jobs ->
      let m = Mutex.create () in
      let finished = Array.make 5 false in
      let violation = ref false in
      Par.wavefront ~jobs ~order:diamond_order ~deps:diamond_deps
        ~dependents:diamond_dependents (fun i ->
          Mutex.lock m;
          List.iter
            (fun d -> if not finished.(d) then violation := true)
            diamond_deps.(i);
          Mutex.unlock m;
          Mutex.lock m;
          finished.(i) <- true;
          Mutex.unlock m);
      Alcotest.(check bool)
        (Printf.sprintf "dependencies complete before dispatch (jobs=%d)" jobs)
        false !violation;
      Alcotest.(check bool)
        "every node processed" true
        (Array.for_all Fun.id finished))
    [ 1; 2; 4 ]

(* -- solution equality ---------------------------------------------------- *)

let globals_equal a b =
  List.equal
    (fun (n1, v1) (n2, v2) -> Fsicp_prog.Prog.Var.equal n1 n2 && L.equal v1 v2)
    a b

(* The two solutions come from distinct [Context.t]s, hence distinct
   program databases; compare procedures by name, never by raw id. *)
let record_equal (sa : Solution.t) (sb : Solution.t)
    (a : Solution.callsite_record) (b : Solution.callsite_record) =
  String.equal
    (Solution.proc_name sa a.Solution.cr_caller)
    (Solution.proc_name sb b.Solution.cr_caller)
  && a.Solution.cr_cs_index = b.Solution.cr_cs_index
  && String.equal
       (Solution.proc_name sa a.Solution.cr_callee)
       (Solution.proc_name sb b.Solution.cr_callee)
  && a.Solution.cr_executable = b.Solution.cr_executable
  && Array.length a.Solution.cr_args = Array.length b.Solution.cr_args
  && Array.for_all2 L.equal a.Solution.cr_args b.Solution.cr_args
  && globals_equal a.Solution.cr_globals b.Solution.cr_globals

let entry_equal (a : Solution.proc_entry) (b : Solution.proc_entry) =
  Array.length a.Solution.pe_formals = Array.length b.Solution.pe_formals
  && Array.for_all2 L.equal a.Solution.pe_formals b.Solution.pe_formals
  && globals_equal a.Solution.pe_globals b.Solution.pe_globals

let sorted_names (t : Solution.t) =
  Fsicp_prog.Prog.Proc.Tbl.fold
    (fun pid _ acc -> Solution.proc_name t pid :: acc)
    t.Solution.entries []
  |> List.sort compare

(** Structural identity including call-record order — the determinism
    contract is stronger than lattice equality. *)
let solutions_identical (a : Solution.t) (b : Solution.t) =
  a.Solution.scc_runs = b.Solution.scc_runs
  && List.equal String.equal (sorted_names a) (sorted_names b)
  && Fsicp_prog.Prog.Proc.Tbl.fold
       (fun pid ea acc ->
         acc
         &&
         match Solution.entry_opt b (Solution.proc_name a pid) with
         | Some eb -> entry_equal ea eb
         | None -> false)
       a.Solution.entries true
  && List.equal (record_equal a b) (Solution.call_records a)
       (Solution.call_records b)
  (* and the dense call-site index resolves every record of [a] in [b]:
     the [(caller, cs_index)] coordinates must agree across job counts *)
  && List.for_all
       (fun (cr : Solution.callsite_record) ->
         match
           Fsicp_prog.Prog.proc_id b.Solution.db
             (Solution.proc_name a cr.Solution.cr_caller)
         with
         | None -> false
         | Some caller -> (
             match
               Solution.find_call_record b ~caller
                 ~cs_index:cr.Solution.cr_cs_index
             with
             | Some cr' -> record_equal a b cr cr'
             | None -> false))
       (Solution.call_records a)

let solve_jobs prog jobs =
  let ctx = Context.create ~jobs prog in
  Fs_icp.solve ~jobs ctx

let check_jobs_equivalent ~what prog =
  let base = solve_jobs prog 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d identical to jobs=1" what jobs)
        true
        (solutions_identical base (solve_jobs prog jobs)))
    [ 2; 4 ]

let test_suite_jobs_equivalent () =
  List.iter
    (fun (b : Spec.benchmark) ->
      check_jobs_equivalent ~what:b.Spec.b_name (Spec.program b))
    Spec.suite

let prop_generated_jobs_equivalent =
  Test_util.qcheck ~count:30 ~name:"generated programs: jobs ∈ {1,2,4} identical"
    Test_util.seed_gen
    (fun seed ->
      let prog = Test_util.program_of_seed seed in
      let base = solve_jobs prog 1 in
      List.for_all
        (fun jobs -> solutions_identical base (solve_jobs prog jobs))
        [ 2; 4 ])

let prop_cyclic_jobs_equivalent =
  Test_util.qcheck ~count:30
    ~name:"cyclic PCGs (back-edge prob 0.9): jobs ∈ {1,2,4} identical"
    Test_util.seed_gen
    (fun seed ->
      let profile =
        {
          (Generator.small_profile seed) with
          Generator.g_back_edge_prob = 0.9;
        }
      in
      let prog = Generator.generate profile in
      let base = solve_jobs prog 1 in
      List.for_all
        (fun jobs -> solutions_identical base (solve_jobs prog jobs))
        [ 2; 4 ])

let suite =
  [
    Alcotest.test_case "parse_jobs accepts positive ints" `Quick
      test_parse_jobs_accepts;
    Alcotest.test_case "parse_jobs rejects zero" `Quick
      test_parse_jobs_rejects_zero;
    Alcotest.test_case "parse_jobs rejects negative" `Quick
      test_parse_jobs_rejects_negative;
    Alcotest.test_case "parse_jobs rejects garbage" `Quick
      test_parse_jobs_rejects_garbage;
    Alcotest.test_case "parse_jobs rejects empty" `Quick
      test_parse_jobs_rejects_empty;
    Alcotest.test_case "parse_jobs rejects float" `Quick
      test_parse_jobs_rejects_float;
    Alcotest.test_case "parse_jobs rejects trailing junk" `Quick
      test_parse_jobs_rejects_trailing;
    Alcotest.test_case "default_jobs: FSICP_JOBS strict" `Quick
      test_default_jobs_env;
    Alcotest.test_case "parallel_init = Array.init" `Quick test_parallel_init;
    Alcotest.test_case "map_list = List.map" `Quick test_map_list;
    Alcotest.test_case "both returns both results" `Quick test_both;
    Alcotest.test_case "worker exception re-raised" `Quick
      test_exception_propagates;
    Alcotest.test_case "wavefront jobs=1 follows order" `Quick
      test_wavefront_sequential_order;
    Alcotest.test_case "wavefront dependency discipline" `Quick
      test_wavefront_respects_deps;
    Alcotest.test_case "suite programs: jobs equivalence" `Slow
      test_suite_jobs_equivalent;
    prop_generated_jobs_equivalent;
    prop_cyclic_jobs_equivalent;
  ]
