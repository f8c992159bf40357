(** Long-lived analysis session with incremental re-analysis — the core of
    [fsicp serve].

    The engine holds a {!Context.t} plus the current flow-insensitive and
    flow-sensitive solutions.  An {!edit_proc} replaces one procedure body
    and re-establishes both solutions, by one of two routes:

    - {b incremental} — when the edit preserves the program's {e shape}
      (same procedures, same callee sequence per procedure, same IPA
      summary shape for the edited procedure): only the edited procedure
      is checked ({!Sema.check_proc}), re-summarized and swapped in place
      ({!Context.replace_proc}), only its artifacts are invalidated
      ({!Context.invalidate_proc}), the flow-insensitive solution is
      patched (one packed propagation pass, then only the rows that
      changed are rebuilt), and the flow-sensitive traversal is re-driven
      over the downstream cone of the edit plus every callee of a back
      edge whose flow-insensitive record changed ({!Fs_icp.resolve}),
      patching the previous solution's rows.  Everything outside the cone
      is shared with the previous solutions, and cone members whose entry
      vectors are unchanged hit the SCC entry-vector memo.

    - {b full rebuild} — when the shape changes (procedure added, call
      site added/removed/retargeted, formals or immediate MOD/REF
      changed): a fresh context is built and both solutions are solved
      from scratch, exactly as a cold start.

    Either way the resulting {!solution} is identical to a from-scratch
    solve of the edited program at any [jobs] — the differential oracle
    ({!Fsicp_oracle.Oracle}) checks this byte-for-byte over random edit
    sequences. *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_ipa
open Fsicp_callgraph
open Fsicp_scc

module Trace = Fsicp_trace.Trace

type t = {
  floats : bool;
  mutable ctx : Context.t;
  mutable fi : Solution.t;
  mutable fs : Solution.t;
  mutable edits : int;
  mutable incremental_edits : int;
  mutable rebuilds : int;
}

type outcome =
  | Incremental of { dirty : int; total : int }
      (** [dirty] procedures re-driven out of [total] reachable *)
  | Rebuilt of string  (** full rebuild, with the reason *)

let solve_fresh ?jobs ~floats prog =
  let ctx = Context.create ~floats ?jobs prog in
  let fi = Fi_icp.solve ctx in
  let fs = Fs_icp.solve ?jobs ~fi ctx in
  (ctx, fi, fs)

(* Whole-program well-formedness checks, counted: a shape-preserving edit
   checks only the edited procedure ({!Sema.check_proc}). *)
let c_sema_full = Trace.counter "engine.sema.full"

let check_program prog =
  Trace.incr c_sema_full;
  Sema.check_exn prog

let create ?(floats = true) ?jobs (prog : Ast.program) : t =
  check_program prog;
  let ctx, fi, fs = solve_fresh ?jobs ~floats prog in
  { floats; ctx; fi; fs; edits = 0; incremental_edits = 0; rebuilds = 0 }

let context t = t.ctx
let solution t = t.fs
let fi_solution t = t.fi

let stats t : (string * int) list =
  [
    ("procs", Callgraph.n_procs t.ctx.Context.pcg);
    ("edits", t.edits);
    ("incremental_edits", t.incremental_edits);
    ("rebuilds", t.rebuilds);
    ("edit_epoch", Context.current_epoch t.ctx);
  ]

(* Argument shapes must match constructor-for-constructor, but two
   literals may carry different payloads: literal argument values feed
   only the flow-insensitive solve (re-run in full on every edit) and the
   flow-sensitive records of the dirty cone — never the alias or MOD/REF
   phases, which see only which positions are by-reference. *)
let args_shape_equal (a : Summary.arg_summary array)
    (b : Summary.arg_summary array) : bool =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x ->
      match (x, b.(i)) with
      | Summary.Alit _, Summary.Alit _ -> ()
      | x, y -> if x <> y then ok := false)
    a;
  !ok

(** Is the edited procedure's IPA summary shape-equal to its previous one?
    Shape equality is exactly the condition under which the PCG, the alias
    pairs and the MOD/REF closures of the {e whole program} are unchanged:
    those phases consume only formals, immediate MOD/REF sets and call
    shapes, never literal argument values. *)
let summary_shape_equal (a : Summary.proc_summary)
    (b : Summary.proc_summary) : bool =
  List.equal String.equal a.Summary.ps_formals b.Summary.ps_formals
  && Summary.VrefSet.equal a.Summary.ps_imod b.Summary.ps_imod
  && Summary.VrefSet.equal a.Summary.ps_iref b.Summary.ps_iref
  && List.equal
       (fun (x : Summary.call_summary) (y : Summary.call_summary) ->
         String.equal x.Summary.cs_callee y.Summary.cs_callee
         && x.Summary.cs_index = y.Summary.cs_index
         && args_shape_equal x.Summary.cs_args y.Summary.cs_args)
       a.Summary.ps_calls b.Summary.ps_calls

(* Value-level equality of two flow-insensitive call records.  Lattice
   values are compared with [Lattice.equal] (NaN-safe, unlike structural
   [=] on the floats inside [Value.Real]). *)
let record_equal (a : Solution.callsite_record option)
    (b : Solution.callsite_record option) : bool =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      Bool.equal a.Solution.cr_executable b.Solution.cr_executable
      && Array.length a.Solution.cr_args = Array.length b.Solution.cr_args
      && Array.for_all2 Lattice.equal a.Solution.cr_args b.Solution.cr_args
      && List.equal
           (fun (g1, v1) (g2, v2) ->
             Prog.Var.compare g1 g2 = 0 && Lattice.equal v1 v2)
           a.Solution.cr_globals b.Solution.cr_globals
  | Some _, None | None, Some _ -> false

let rebuild ?jobs t prog reason : outcome =
  let ctx, fi, fs = solve_fresh ?jobs ~floats:t.floats prog in
  t.ctx <- ctx;
  t.fi <- fi;
  t.fs <- fs;
  t.rebuilds <- t.rebuilds + 1;
  Rebuilt reason

(** Replace procedure [p.pname]'s definition with [p] (or add it when no
    procedure of that name exists) and re-establish both solutions.
    @raise Sema.Illformed when the edited program fails {!Sema.check};
    the engine state is untouched in that case. *)
let edit_proc ?jobs t (p : Ast.proc) : outcome =
  Trace.span ~args:(fun () -> [ ("proc", p.Ast.pname) ]) "engine:edit"
  @@ fun () ->
  let ctx = t.ctx in
  let pcg = ctx.Context.pcg in
  let old_prog = ctx.Context.prog in
  match Callgraph.find_ast pcg p.Ast.pname with
  | None ->
      (* A new procedure changes the program shape outright. *)
      let prog = { old_prog with Ast.procs = old_prog.Ast.procs @ [ p ] } in
      check_program prog;
      t.edits <- t.edits + 1;
      rebuild ?jobs t prog "new procedure"
  | Some old -> (
      let prog =
        {
          old_prog with
          Ast.procs =
            List.map
              (fun q ->
                if String.equal q.Ast.pname p.Ast.pname then p else q)
              old_prog.Ast.procs;
        }
      in
      (* The rest of the program was clean and is unchanged, so with the
         same name and formals only [p]'s own checks can fail. *)
      if List.equal String.equal old.Ast.formals p.Ast.formals then
        Sema.check_proc_exn ~lookup:(Callgraph.find_ast pcg) p
      else check_program prog;
      t.edits <- t.edits + 1;
      (* Only the edited procedure's summary can change — summaries are
         per-body and the globals list is untouched by a procedure edit —
         so summarize just that procedure instead of re-collecting the
         whole program. *)
      let old_s = Summary.find ctx.Context.summaries p.Ast.pname in
      let new_s = Summary.summarize_proc prog p in
      match Callgraph.proc_id pcg p.Ast.pname with
      | None ->
          (* Unreachable procedure: no analysis artifact depends on its
             body, whatever its shape.  Record the new text and summary;
             both solutions stand. *)
          Context.replace_proc ctx prog p new_s;
          t.incremental_edits <- t.incremental_edits + 1;
          Incremental { dirty = 0; total = Callgraph.n_procs pcg }
      | Some _ when not (summary_shape_equal old_s new_s) ->
          rebuild ?jobs t prog "summary shape changed"
      | Some pid ->
          (* Shape preserved: swap program and summary in place,
             invalidate only the edited procedure's artifacts. *)
          Context.replace_proc ctx prog p new_s;
          Context.invalidate_proc ctx pid;
          (* The flow-insensitive propagation re-runs in full (packed, no
             SSA, no SCC), which keeps the back-edge seed exact; the patch
             re-boxes only the rows it changed and shares the rest. *)
          let fi' = Fi_icp.solve ~prev:(t.fi, pid) ctx in
          (* Seeds: the edited procedure, plus the callee of every back
             edge whose flow-insensitive record changed — the only channel
             through which an edit reaches a procedure that is not
             downstream of it over forward edges.  Only a re-boxed row
             (physically new) can hold a changed record. *)
          let seeds = ref [ pid ] in
          Prog.Proc.Tbl.iteri
            (fun caller row ->
              let old_row =
                Prog.Proc.Tbl.get t.fi.Solution.call_index caller
              in
              if row != old_row then
                Array.iter
                  (fun (e : Callgraph.edge) ->
                    let k = e.Callgraph.cs_index in
                    if
                      e.Callgraph.back
                      && not (record_equal old_row.(k) row.(k))
                    then seeds := e.Callgraph.callee :: !seeds)
                  (Callgraph.out_edges pcg caller))
            fi'.Solution.call_index;
          let dirty = Callgraph.cone pcg ~seeds:!seeds in
          let fs' = Fs_icp.resolve ~fi:fi' ~prev:t.fs ~dirty ctx in
          t.fi <- fi';
          t.fs <- fs';
          t.incremental_edits <- t.incremental_edits + 1;
          Incremental
            { dirty = Array.length dirty; total = Callgraph.n_procs pcg })
