(* Self-tests of the benchmark: its workloads keep their shape under every
   seed, one seed always gives the same outputs, and the traced
   layer-by-layer replica prints what the real path prints. *)

open Fsicp_lang
open Perfbench
module Trace = Fsicp_trace.Trace

let seeds = List.init 10 (fun i -> i + 1)
let requests = 30
let nproc = max 2 (Domain.recommended_domain_count ())

let programs (i : Workload.inputs) =
  List.map Command.parse_check
    ((i.Workload.session :: i.Workload.analyze) @ i.Workload.verify)

let shapes kind =
  List.map (Fmt.str "%a" Workload.pp_shape)
    (List.map Workload.shape (programs (Workload.inputs kind)))

(* The session program after each edit of the seed's first block of
   requests, applied to the AST the way the engine applies them, the
   edited procedures, and the queries. *)
let edited_shapes kind seed =
  let prog = Command.parse_check (Workload.inputs kind).Workload.session in
  let traffic = Traffic.make ~seed prog in
  let cur = ref prog and queries = ref [] in
  List.filter_map
    (fun _ ->
      let r = Traffic.next_request traffic in
      match r.Traffic.kind with
      | Traffic.Entry | Traffic.Call_site ->
          queries := r.Traffic.json :: !queries;
          None
      | Traffic.Edit ->
          let req = Result.get_ok (Fsicp_serve.Json.of_string r.Traffic.json) in
          let src = Option.get (Fsicp_serve.Json.str_member "source" req) in
          let p = List.hd (Parser.program_of_string src).Ast.procs in
          cur :=
            { !cur with
              Ast.procs =
                List.map
                  (fun (q : Ast.proc) -> if q.Ast.pname = p.Ast.pname then p else q)
                  !cur.Ast.procs };
          Some (Fmt.str "%a" Workload.pp_shape (Workload.shape !cur), p.Ast.pname))
    (List.init (Traffic.block_requests traffic) Fun.id)
  |> List.split
  |> fun (shapes, edited) -> (shapes, edited, List.sort compare !queries)

let shape_invariance kind () =
  let base = shapes kind and edits, targets, queries = edited_shapes kind 1 in
  Alcotest.(check bool) "a shape-changing edit and its revert are exercised" true
    (List.exists (fun s -> s <> List.hd base) edits);
  List.iter
    (fun seed ->
      Alcotest.(check (list string)) "input shapes" base (shapes kind);
      let edits', targets', queries' = edited_shapes kind seed in
      Alcotest.(check (list string)) "shapes along the edits" edits edits';
      (* The shape-changing pair at the end of the block may pick
         another caller; the regular edits hit the same procedures. *)
      let regular l = List.sort compare (List.filteri (fun i _ -> i < List.length l - 2) l) in
      Alcotest.(check (list string)) "edited procedures" (regular targets)
        (regular targets');
      Alcotest.(check (list string)) "queries" queries queries')
    seeds

(* One pass of every operation, with the stable trace counters it moved. *)
let pass kind ~seed =
  let i = Workload.inputs kind in
  let before = Trace.counters () in
  let analyze = List.map (fun x -> (Command.analyze ~jobs:1 x).Command.a_out) i.Workload.analyze in
  let methods =
    List.map
      (fun x -> Command.methods (Command.methods_context (Command.parse_check x)))
      i.Workload.analyze
  in
  let verify = List.map (Command.verify ~jobs:1) i.Workload.verify in
  let st = Command.load_session (snd i.Workload.session) in
  let traffic = Traffic.make ~seed (Command.parse_check i.Workload.session) in
  let responses =
    List.init requests (fun _ ->
        let resp, ok = Command.request st (Traffic.next_request traffic).Traffic.json in
        Alcotest.(check bool) ("ok: " ^ resp) true ok;
        resp)
  in
  Alcotest.(check bool) "engine agrees with a from-scratch solve" true
    (Command.engine_agrees st);
  List.iter
    (fun (v : Command.verdicts) -> Alcotest.(check int) "refuted" 0 v.Command.refuted)
    verify;
  let moved =
    List.filter_map
      (fun (name, n) ->
        let n0 = Option.value (List.assoc_opt name before) ~default:0 in
        if n <> n0 then Some (Printf.sprintf "%s=%d" name (n - n0)) else None)
      (Trace.counters ())
  in
  (analyze, methods, verify, responses, moved)

let determinism kind () =
  let w = Workload.name kind in
  let ex = Run.Expected.load ~record:false (Some "../expected.txt") in
  let a1, m1, v1, r1, c1 = pass kind ~seed:3 in
  let a2, m2, v2, r2, c2 = pass kind ~seed:3 in
  let check_all op outs labels =
    List.iter2
      (fun (label, _) out ->
        Alcotest.(check (option string))
          (Printf.sprintf "%s %s matches the record" op label)
          None (Run.Expected.check ex w op label out))
      labels outs
  in
  let i = Workload.inputs kind in
  Alcotest.(check (list string)) "analyze" a1 a2;
  Alcotest.(check (list string)) "methods" m1 m2;
  let vs = List.map (fun (v : Command.verdicts) -> v.Command.v_out) in
  Alcotest.(check (list string)) "verify" (vs v1) (vs v2);
  Alcotest.(check (list string)) "responses" r1 r2;
  Alcotest.(check (list string)) "stable counters" c1 c2;
  check_all "analyze" a1 i.Workload.analyze;
  check_all "methods" m1 i.Workload.analyze;
  check_all "verify" (vs v1) i.Workload.verify

let replica kind () =
  let i = Workload.inputs kind in
  List.iter
    (fun jobs ->
      List.iter
        (fun x ->
          let real = (Command.analyze ~jobs:1 x).Command.a_out in
          let rep = Layers.analyze (Layers.create ()) ~jobs x in
          Alcotest.(check string) (Printf.sprintf "analyze, jobs=%d" jobs) real rep.Layers.out)
        i.Workload.analyze)
    [ 1; nproc ];
  (* [Command.verify] unrolls [Verify.verify_program] to split it into
     layers; both must give the same verdicts. *)
  List.iter
    (fun x ->
      let v = Command.verify ~layer:(Layers.as_layer (Layers.create ())) ~jobs:1 x in
      let ctx = Fsicp_core.Context.create ~jobs:1 v.Command.v_prog in
      let solution = Fsicp_core.Fs_icp.solve ~jobs:1 ctx in
      let reports =
        Fsicp_verify.Verify.verify_program ~backend:Fsicp_verify.Verify.Symbolic ctx
          ~solution
      in
      Alcotest.(check string) "verify equals Verify.verify_program"
        (Command.verdicts_of v.Command.v_prog ~trans:[] reports).Command.v_out
        v.Command.v_out)
    i.Workload.verify

let () =
  let cases name f =
    List.map
      (fun k -> Alcotest.test_case (Workload.name k) `Quick (f k))
      Workload.all
    |> fun l -> (name, l)
  in
  Alcotest.run "perfbench"
    [
      cases "shape invariance" shape_invariance;
      cases "determinism" determinism;
      cases "replica equality" replica;
    ]
