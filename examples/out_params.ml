(** The return-constants extension (paper §3.2) end to end.

    Fortran code configures through out parameters: a setup routine stores
    constants through references, and everything downstream depends on
    them.  The base flow-sensitive method loses those constants at the call
    (a call conservatively clobbers its by-reference actuals); the
    extension's extra reverse traversal computes per-procedure exit
    summaries and feeds them back as call effects.

    Run with: [dune exec examples/out_params.exe] *)

open Fsicp_lang
open Fsicp_core

let source =
  {|
  global tolerance;

  proc main() {
    gridsize = 0;
    call configure(gridsize);        // stores 128 through the reference
    call mesh(gridsize);             // ... which only the extension sees
  }

  proc configure(out) {
    out = 128;
    tolerance = 4;
  }

  proc mesh(n) {
    cells = n * n;
    print cells;
    print tolerance;
  }
  |}

let show label sol =
  Fmt.pr "%s:@." label;
  Fmt.pr "  mesh's n     : %a@." Fsicp_scc.Lattice.pp
    (Solution.formal_value sol "mesh" 0);
  Fmt.pr "  tolerance@mesh: %a@." Fsicp_scc.Lattice.pp
    (Solution.global_value sol "mesh" "tolerance")

let () =
  let prog = Parser.program_of_string source in
  Sema.check_exn prog;
  let ctx = Context.create prog in

  (* Phase 1: the paper's forward flow-sensitive traversal. *)
  let fs = Fs_icp.solve ctx in
  show "base flow-sensitive method (returns off, as in the paper's tables)"
    fs;

  (* Phase 2: one reverse traversal computing exit summaries. *)
  let rc = Return_consts.compute ctx ~fs in
  (match Return_consts.summary_of rc "configure" with
  | Some s ->
      Fmt.pr "@.configure's exit summary:@.";
      Fmt.pr "  out parameter : %a@." Fsicp_scc.Lattice.pp
        s.Return_consts.rs_formals.(0);
      Fmt.pr "  tolerance     : %a@." Fsicp_scc.Lattice.pp
        (Return_consts.exit_global s
           (Fsicp_prog.Prog.Var.intern "tolerance"))
  | None -> assert false);

  (* Phase 3: a refined forward pass with the summaries as call effects. *)
  let fs' =
    Fs_icp.solve
      ~call_def_value:(Return_consts.as_oracle rc ~censor:(Context.censor_w ctx))
      ctx
  in
  Fmt.pr "@.";
  show "with the return-constants extension" fs';

  (* And the folded program is fully specialised. *)
  let folded = Fold.fold_program ctx fs' in
  Fmt.pr "@.folded with the extension's facts:@.%a@." Pretty.pp_program folded;
  let out p = (Fsicp_interp.Interp.run p).Fsicp_interp.Interp.prints in
  assert (List.equal Value.equal (out prog) (out folded));
  Fmt.pr "outputs verified identical: %a@."
    Fmt.(list ~sep:(any ", ") Value.pp)
    (out folded)
