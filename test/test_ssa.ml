(** Tests for SSA construction: structural invariants, phi placement, alias
    kills, exit names, and the [Ssa.validate] checker on generated
    programs. *)

open Fsicp_lang
open Fsicp_cfg
open Fsicp_ssa

let ssa_of ?effects src name =
  let p = Test_util.parse src in
  Ssa.of_proc ?effects p (Lower.lower_proc p (Ast.find_proc_exn p name))

let test_straight_line_versions () =
  let s = ssa_of "proc main() { x = 1; x = 2; print x; }" "main" in
  (* x has versions 0 (entry), 1, 2; the print uses version 2 *)
  let print_use = ref None in
  Array.iter
    (fun (b : Ssa.block) ->
      Array.iter
        (function
          | Ssa.Print (Ssa.Oname n) -> print_use := Some n
          | _ -> ())
        b.Ssa.instrs)
    s.Ssa.blocks;
  match !print_use with
  | Some n ->
      Alcotest.(check string) "prints x" "x" (Ir.Var.name n.Ssa.base);
      Alcotest.(check int) "uses latest version" 2 n.Ssa.ver
  | None -> Alcotest.fail "no print found"

let test_phi_at_join () =
  let s =
    ssa_of "proc main() { if (c) { x = 1; } else { x = 2; } print x; }" "main"
  in
  let phis = ref [] in
  Array.iteri
    (fun b (blk : Ssa.block) ->
      Array.iter
        (fun (ph : Ssa.phi) -> phis := (b, ph) :: !phis)
        blk.Ssa.phis)
    s.Ssa.blocks;
  let x_phis =
    List.filter (fun (_, ph) -> (Ir.Var.name ph.Ssa.p_name.Ssa.base) = "x") !phis
  in
  Alcotest.(check int) "exactly one phi for x" 1 (List.length x_phis);
  let _, ph = List.hd x_phis in
  Alcotest.(check int) "phi has two operands" 2 (Array.length ph.Ssa.p_args)

let test_no_phi_when_single_def () =
  let s = ssa_of "proc main() { x = 1; if (c) { y = 2; } print x; }" "main" in
  Array.iter
    (fun (blk : Ssa.block) ->
      Array.iter
        (fun (ph : Ssa.phi) ->
          if (Ir.Var.name ph.Ssa.p_name.Ssa.base) = "x" then
            Alcotest.fail "x has a single def; no phi expected")
        blk.Ssa.phis)
    s.Ssa.blocks

let test_loop_phi () =
  let s =
    ssa_of "proc main() { i = 0; while (i < 3) { i = i + 1; } print i; }"
      "main"
  in
  let i_phis = ref 0 in
  Array.iter
    (fun (blk : Ssa.block) ->
      Array.iter
        (fun (ph : Ssa.phi) ->
          if (Ir.Var.name ph.Ssa.p_name.Ssa.base) = "i" then incr i_phis)
        blk.Ssa.phis)
    s.Ssa.blocks;
  Alcotest.(check bool) "loop variable needs a phi" true (!i_phis >= 1)

let test_call_defines_byref () =
  let s =
    ssa_of
      {|proc main() { x = 1; call f(x); print x; }
        proc f(a) { a = 2; }|}
      "main"
  in
  (* The conservative oracle makes the call define x; the print must use the
     post-call version, not version 1. *)
  let call_def_ver = ref (-1) and print_ver = ref (-1) in
  Array.iter
    (fun (blk : Ssa.block) ->
      Array.iter
        (function
          | Ssa.Call c ->
              Array.iter
                (fun ((v : Ir.var), (n : Ssa.name)) ->
                  if (Ir.Var.name v) = "x" then call_def_ver := n.Ssa.ver)
                c.Ssa.c_defs
          | Ssa.Print (Ssa.Oname n) ->
              if (Ir.Var.name n.Ssa.base) = "x" then print_ver := n.Ssa.ver
          | _ -> ())
        blk.Ssa.instrs)
    s.Ssa.blocks;
  Alcotest.(check bool) "call defines x" true (!call_def_ver > 0);
  Alcotest.(check int) "print uses post-call version" !call_def_ver !print_ver

let test_alias_kill_emitted () =
  let p =
    Test_util.parse
      {|proc main() { x = 1; call f(x, x); }
        proc f(a, b) { a = 9; print b; }|}
  in
  let ctx = Fsicp_core.Context.create p in
  let s = Fsicp_core.Context.ssa ctx "f" in
  (* assigning a must kill b (they may alias) *)
  let kills = ref [] in
  Array.iter
    (fun (blk : Ssa.block) ->
      Array.iter
        (function
          | Ssa.Kill ks ->
              Array.iter (fun ((v : Ir.var), _) -> kills := (Ir.Var.name v) :: !kills) ks
          | _ -> ())
        blk.Ssa.instrs)
    s.Ssa.blocks;
  Alcotest.(check bool) "b killed by store to a" true (List.mem "b" !kills)

let test_global_uses_recorded () =
  let p =
    Test_util.parse
      {|global g;
        proc main() { g = 5; call f(); }
        proc f() { print g; }|}
  in
  let ctx = Fsicp_core.Context.create p in
  let s = Fsicp_core.Context.ssa ctx "main" in
  let recorded = ref [] in
  List.iter
    (fun (_, _, (c : Ssa.call)) ->
      Array.iter
        (fun ((v : Ir.var), _) -> recorded := (Ir.Var.name v) :: !recorded)
        c.Ssa.c_global_uses)
    (Ssa.call_sites s);
  Alcotest.(check bool) "g recorded at call to f" true (List.mem "g" !recorded)

let test_exit_names_present () =
  let s =
    ssa_of
      {|global g;
        proc main() { call f(1); }
        proc f(a) { a = 3; g = 4; }|}
      "f"
  in
  Alcotest.(check bool) "at least one return record" true
    (s.Ssa.exit_names <> []);
  let _, names = List.hd s.Ssa.exit_names in
  let find name =
    Array.to_list names
    |> List.find_opt (fun ((v : Ir.var), _) -> (Ir.Var.name v) = name)
  in
  (match find "a" with
  | Some (_, n) -> Alcotest.(check bool) "a's exit version > 0" true (n.Ssa.ver > 0)
  | None -> Alcotest.fail "formal missing from exit names");
  match find "g" with
  | Some (_, n) -> Alcotest.(check bool) "g's exit version > 0" true (n.Ssa.ver > 0)
  | None -> Alcotest.fail "global missing from exit names"

let test_def_use_chains () =
  let s = ssa_of "proc main() { x = 1; y = x + x; print y; }" "main" in
  (* version 1 of x is used twice, both in the same instr *)
  Array.iter
    (fun (blk : Ssa.block) ->
      Array.iter
        (function
          | Ssa.Assign (n, _) when (Ir.Var.name n.Ssa.base) = "x" ->
              Alcotest.(check int) "x.1 has two uses (one site each)" 2
                (List.length (Ssa.uses_of s n.Ssa.id))
          | _ -> ())
        blk.Ssa.instrs)
    s.Ssa.blocks

let validate_program seed =
  let p = Test_util.program_of_seed seed in
  let ctx = Fsicp_core.Context.create p in
  let pcg = ctx.Fsicp_core.Context.pcg in
  Array.iter
    (fun pid ->
      let s = Fsicp_core.Context.ssa_at ctx pid in
      match Ssa.validate s with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "%s: %s"
            (Fsicp_callgraph.Callgraph.proc_name pcg pid)
            msg)
    pcg.Fsicp_callgraph.Callgraph.nodes

let prop_validate =
  Test_util.qcheck ~count:50 ~name:"SSA invariants on generated programs"
    Test_util.seed_gen
    (fun seed ->
      validate_program seed;
      true)

(* Every use's defining name id is within range and its def site is set. *)
let prop_defs_total =
  Test_util.qcheck ~count:30 ~name:"every name has a def site"
    Test_util.seed_gen
    (fun seed ->
      let p = Test_util.program_of_seed seed in
      let ctx = Fsicp_core.Context.create p in
      Array.for_all
        (fun pid ->
          let s = Fsicp_core.Context.ssa_at ctx pid in
          (* entry names are Dentry; everything else Dinstr/Dphi; just check
             array sizes line up *)
          Array.length s.Ssa.defs = s.Ssa.n_names
          && Array.length s.Ssa.use_offsets = s.Ssa.n_names + 1
          && Array.length s.Ssa.use_sites >= s.Ssa.use_offsets.(s.Ssa.n_names))
        ctx.Fsicp_core.Context.pcg.Fsicp_callgraph.Callgraph.nodes)

(* -- Semi-pruned phi placement ---------------------------------------- *)

let phis_of (s : Ssa.proc) : (int * Ssa.phi) list =
  Array.to_list s.Ssa.blocks
  |> List.mapi (fun b (blk : Ssa.block) ->
         List.map (fun ph -> (b, ph)) (Array.to_list blk.Ssa.phis))
  |> List.concat

let check_valid what (s : Ssa.proc) =
  match Ssa.validate s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let test_temp_gets_no_phi () =
  (* Each arm computes a compound expression into a temporary that only
     its own block reads; [x] is assigned in both arms and read after the
     join. *)
  let s =
    ssa_of
      {|proc main() { call f(1); }
        proc f(a) { if (a > 0) { x = a + 1; } else { x = a * 2; } print x; }|}
      "f"
  in
  let phis = phis_of s in
  let temp_phis =
    List.filter (fun (_, ph) -> Ir.Var.is_temp ph.Ssa.p_name.Ssa.base) phis
  in
  let x_phis =
    List.filter (fun (_, ph) -> Ir.Var.name ph.Ssa.p_name.Ssa.base = "x") phis
  in
  Alcotest.(check int) "no phi for a block-local temporary" 0
    (List.length temp_phis);
  Alcotest.(check int) "one phi for x at the join" 1 (List.length x_phis);
  check_valid "f" s

let test_global_phi_before_ret () =
  (* [g] is never read in [f], but the return records its reaching
     version, so the join before [Ret] needs a phi for it. *)
  let s =
    ssa_of
      {|global g;
        proc main() { call f(1); }
        proc f(a) { if (a > 0) { g = 1; } }|}
      "f"
  in
  let g_phis =
    List.filter
      (fun (_, ph) -> Ir.Var.is_global ph.Ssa.p_name.Ssa.base)
      (phis_of s)
  in
  (match g_phis with
  | [ (b, ph) ] ->
      Alcotest.(check bool) "the phi's block returns" true
        (s.Ssa.blocks.(b).Ssa.term = Ssa.Ret);
      let _, exits = List.find (fun (rb, _) -> rb = b) s.Ssa.exit_names in
      let _, g_exit =
        Array.to_list exits
        |> List.find (fun ((v : Ir.var), _) -> Ir.Var.is_global v)
      in
      Alcotest.(check int) "exit name is the phi" ph.Ssa.p_name.Ssa.id
        g_exit.Ssa.id
  | l -> Alcotest.failf "expected one phi for g, got %d" (List.length l));
  check_valid "f" s

let shape_ssa (prog : Ast.program) name =
  Ssa.of_proc prog (Lower.lower_proc prog (Ast.find_proc_exn prog name))

let test_if_nest_phi_count () =
  let d = 200 in
  let prog = Fsicp_shapes.Shapes.(program [ if_nest ~depth:d ]) in
  let s = shape_ssa prog "ifnest" in
  let n = List.length (phis_of s) in
  if n > (2 * d) + 4 then
    Alcotest.failf "if-nest of depth %d: %d phis > 2d + 4" d n;
  check_valid "ifnest" s

let test_deep_if_nest_no_overflow () =
  let prog = Fsicp_shapes.Shapes.(program [ if_nest ~depth:20000 ]) in
  match shape_ssa prog "ifnest" with
  | s ->
      Alcotest.(check bool) "blocks" true (Array.length s.Ssa.blocks > 20000)
  | exception Stack_overflow -> Alcotest.fail "Stack_overflow at depth 20000"

(* [validate] checks def-dominates-use; run it over every procedure of a
   program, built through the full context (IPA call effects). *)
let validate_all what (prog : Ast.program) =
  let ctx = Fsicp_core.Context.create prog in
  let pcg = ctx.Fsicp_core.Context.pcg in
  Array.iter
    (fun pid ->
      check_valid
        (what ^ ":" ^ Fsicp_callgraph.Callgraph.proc_name pcg pid)
        (Fsicp_core.Context.ssa_at ctx pid))
    pcg.Fsicp_callgraph.Callgraph.nodes

let test_validate_suite () =
  List.iter
    (fun (b : Fsicp_workloads.Spec.benchmark) ->
      validate_all b.Fsicp_workloads.Spec.b_name
        (Fsicp_workloads.Spec.program b))
    Fsicp_workloads.Spec.suite

let test_validate_testdata () =
  Sys.readdir Test_corpus.corpus_dir
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mf")
  |> List.iter (fun f -> validate_all f (Test_corpus.load f))

let test_validate_deep_shapes () =
  validate_all "deep" (Fsicp_shapes.Shapes.deep ())

let test_validate_rejects_bad_dominance () =
  (* Point the print after the join at the then-arm's version of x instead
     of the join's phi: that def does not dominate the print. *)
  let s =
    ssa_of
      {|proc main() { call f(1); }
        proc f(a) { if (a > 0) { x = 1; } else { x = 2; } print x; }|}
      "f"
  in
  let then_def = ref None in
  Array.iter
    (fun (blk : Ssa.block) ->
      Array.iter
        (function
          | Ssa.Assign (n, _) when Ir.Var.name n.Ssa.base = "x" && !then_def = None
            ->
              then_def := Some n
          | _ -> ())
        blk.Ssa.instrs)
    s.Ssa.blocks;
  let n = Option.get !then_def in
  let blocks =
    Array.map
      (fun (blk : Ssa.block) ->
        {
          blk with
          Ssa.instrs =
            Array.map
              (function
                | Ssa.Print (Ssa.Oname m) when Ir.Var.name m.Ssa.base = "x" ->
                    Ssa.Print (Ssa.Oname n)
                | ins -> ins)
              blk.Ssa.instrs;
        })
      s.Ssa.blocks
  in
  match Ssa.validate { s with Ssa.blocks } with
  | Ok () -> Alcotest.fail "validate accepted a use its def does not dominate"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "straight-line versions" `Quick
      test_straight_line_versions;
    Alcotest.test_case "phi at join" `Quick test_phi_at_join;
    Alcotest.test_case "no phi for single def" `Quick test_no_phi_when_single_def;
    Alcotest.test_case "loop phi" `Quick test_loop_phi;
    Alcotest.test_case "call defines by-ref actuals" `Quick
      test_call_defines_byref;
    Alcotest.test_case "alias kill emitted" `Quick test_alias_kill_emitted;
    Alcotest.test_case "global uses recorded at calls" `Quick
      test_global_uses_recorded;
    Alcotest.test_case "exit names at returns" `Quick test_exit_names_present;
    Alcotest.test_case "def-use chains" `Quick test_def_use_chains;
    prop_validate;
    prop_defs_total;
    Alcotest.test_case "no phi for a block-local temporary" `Quick
      test_temp_gets_no_phi;
    Alcotest.test_case "global phi at the join before ret" `Quick
      test_global_phi_before_ret;
    Alcotest.test_case "if-nest depth 200: at most 2d+4 phis" `Quick
      test_if_nest_phi_count;
    Alcotest.test_case "if-nest depth 20000 builds" `Quick
      test_deep_if_nest_no_overflow;
    Alcotest.test_case "validate: Spec.suite" `Quick test_validate_suite;
    Alcotest.test_case "validate: testdata" `Quick test_validate_testdata;
    Alcotest.test_case "validate: deep shapes" `Quick test_validate_deep_shapes;
    Alcotest.test_case "validate rejects a non-dominating def" `Quick
      test_validate_rejects_bad_dominance;
  ]
