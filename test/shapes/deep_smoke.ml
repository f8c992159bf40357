(** Deep-shape smoke: build an if-nest of the given depth (default 20000)
    with {!Fsicp_lang.Builder}, lower it and build its SSA, then solve
    FS-ICP at jobs=1 from a fresh context, printing the SSA size and the
    wall time of each step.  Every step must stay linear in the depth; run
    it under a timeout to gate that.

    Usage: [deep_smoke.exe [DEPTH]] *)

open Fsicp_lang
open Fsicp_cfg
open Fsicp_ssa
open Fsicp_core

let timed label f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "%-8s %.3f s\n%!" label (Unix.gettimeofday () -. t0);
  r

let () =
  let depth =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 20000
  in
  let prog =
    timed "build" (fun () ->
        Fsicp_shapes.Shapes.(program [ if_nest ~depth ]))
  in
  let ir =
    timed "lower" (fun () ->
        Lower.lower_proc prog (Ast.find_proc_exn prog "ifnest"))
  in
  let ssa = timed "ssa" (fun () -> Ssa.of_proc prog ir) in
  let phis =
    Array.fold_left (fun n (b : Ssa.block) -> n + Array.length b.Ssa.phis) 0
      ssa.Ssa.blocks
  in
  Printf.printf "depth %d: %d blocks, %d phis, %d names\n" depth
    (Array.length ssa.Ssa.blocks) phis ssa.Ssa.n_names;
  let sol =
    timed "fs-icp" (fun () -> Fs_icp.solve ~jobs:1 (Context.create ~jobs:1 prog))
  in
  Fmt.pr "%a@." Solution.pp sol
