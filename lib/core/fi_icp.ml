(** Flow-insensitive interprocedural constant propagation (paper Figure 3).

    {b Globals}: the initial constants are collected from block data; any
    global modified anywhere in the program (it appears in the MOD set of
    the main procedure, which transitively covers every reachable call) is
    removed.  The survivors are constant for the entire program and are
    propagated to every procedure that references them.

    {b Formals}: an optimistic data-flow over the PCG.  All formals start at
    ⊤.  One forward topological traversal inspects every call site: an
    immediate (literal) constant or program-constant global argument meets
    the corresponding formal with that constant; an argument that is a
    formal of the caller which is {e currently marked constant and not
    modified (directly or indirectly) by the caller} passes its constant
    through, and the pair is recorded in the [fp_bind] relation; anything
    else meets with ⊥.  A worklist then handles PCG cycles: when a formal
    that had been constant is lowered to ⊥, everything bound to it through
    [fp_bind] is lowered too, transitively.

    Unlike the pass-through jump function of Callahan–Cooper–Kennedy–Torczon
    and Grove–Torczon, no flow-sensitive intraprocedural analysis is applied
    before propagation — the method sees only argument {e shapes} — so it
    finds fewer candidates (paper §5 calls its results "clearly inferior to
    the no-return polynomial jump function results"); its role is to be the
    cheap sound fallback the flow-sensitive method uses on back edges. *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_ipa
open Fsicp_callgraph
open Fsicp_scc

let method_name = "flow-insensitive"

module Trace = Fsicp_trace.Trace
module P = Lattice.P

(* Both counters are deterministic: the forward traversal order and the
   FIFO drain depend only on the program. *)
let c_pops = Trace.counter "fi.worklist_pops"
let c_lowerings = Trace.counter "fi.lowerings"

(* Rows (entries and per-caller call-record rows) a patch re-boxed.  A
   from-scratch solve boxes every row and does not count here. *)
let c_reboxed = Trace.counter "fi.patch.reboxed"

let solve_body ?prev (ctx : Context.t) : Solution.t =
  let pcg = ctx.Context.pcg in
  let db = pcg.Callgraph.db in
  let n = Callgraph.n_procs pcg in
  (* Dense caller-major formal numbering: formal [i] of procedure [p] is
     slot [fp_base.(p) + i].  All per-formal state is flat arrays — the
     former [(string * int)]-keyed hashtables hashed a boxed tuple per
     lattice meet. *)
  (* Each summary is looked up once (the table is keyed by name). *)
  let sums =
    Array.map
      (fun pid -> Summary.find ctx.Context.summaries (Prog.proc_name db pid))
      pcg.Callgraph.nodes
  in
  let n_formals =
    Array.map (fun s -> List.length s.Summary.ps_formals) sums
  in
  let fp_base = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    fp_base.(i + 1) <- fp_base.(i) + n_formals.(i)
  done;
  let slot (p : Prog.Proc.id) i = fp_base.((p :> int)) + i in

  (* -- Globals -------------------------------------------------------- *)
  let modified =
    Modref.globals_modified_anywhere ctx.Context.modref
      ~main:ctx.Context.prog.Ast.main
  in
  let program_constants =
    Context.blockdata_env ctx
    |> List.filter (fun ((g : Prog.Var.id), v) ->
           Lattice.is_const v && not (List.mem (Prog.Var.name g) modified))
  in
  let global_const (g : Prog.Var.id) = List.assoc_opt g program_constants in
  (* Bare-global arguments name their global: packed by name, so the pass
     below neither interns nor boxes. *)
  let const_word : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (g, v) -> Hashtbl.replace const_word (Prog.Var.name g) (P.of_t v))
    program_constants;

  (* -- Formals -------------------------------------------------------- *)
  let n_slots = fp_base.(n) in
  (* Packed lattice words ({!Lattice.P}): every meet below is integer
     arithmetic on an unboxed slot. *)
  let values = Array.make n_slots P.top in
  let fp_bind : int list array = Array.make n_slots [] in
  let value k = values.(k) in
  let worklist : int Queue.t = Queue.create () in
  let pops = ref 0 in
  let lowerings = ref 0 in
  (* [meet k w] implements the paper's meet procedure: lowering a formal
     that was not already ⊥ down to ⊥ schedules everything bound to it. *)
  let meet k w =
    let orig = value k in
    let merged = P.meet orig w in
    if merged <> orig then begin
      incr lowerings;
      values.(k) <- merged;
      if merged = P.bot && orig <> P.bot then
        List.iter (fun k' -> Queue.add k' worklist) fp_bind.(k)
    end
  in

  (* Forward topological traversal over all call sites (ids are the
     forward order; a site's callee comes from the dense out-row). *)
  Array.iteri
    (fun p (s : Summary.proc_summary) ->
      let caller_id = pcg.Callgraph.nodes.(p) in
      let out = Callgraph.out_edges pcg caller_id in
      List.iter
        (fun (c : Summary.call_summary) ->
          let callee_id = out.(c.Summary.cs_index).Callgraph.callee in
          Array.iteri
            (fun j arg ->
              let target = slot callee_id j in
              match arg with
              | Summary.Alit v ->
                  meet target (Context.censor_w ctx (P.of_value v))
              | Summary.Aglobal g -> (
                  match Hashtbl.find_opt const_word g with
                  | Some w -> meet target w
                  | None -> meet target P.bot)
              | Summary.Aformal i ->
                  let k = slot caller_id i in
                  let w = value k in
                  if
                    P.is_const w
                    && not
                         (Modref.formal_modified ctx.Context.modref
                            s.Summary.ps_name i)
                  then begin
                    fp_bind.(k) <- target :: fp_bind.(k);
                    meet target w
                  end
                  else meet target P.bot
              | Summary.Alocal _ | Summary.Aexpr -> meet target P.bot)
            c.Summary.cs_args)
        s.Summary.ps_calls)
    sums;

  (* Drain the lowering worklist (pass-through formals that were constant
     and have since been lowered). *)
  while not (Queue.is_empty worklist) do
    let k = Queue.take worklist in
    incr pops;
    if value k <> P.bot then begin
      incr lowerings;
      values.(k) <- P.bot;
      List.iter (fun k' -> Queue.add k' worklist) fp_bind.(k)
    end
  done;
  Trace.add c_pops !pops;
  Trace.add c_lowerings !lowerings;

  (* -- Assemble the solution ------------------------------------------ *)
  (* The solution is a patch of [prev] — the previous solution and the
     procedure whose body a shape-preserving edit replaced — or, from
     scratch, of nothing.  Under a shape-preserving edit only literal
     payloads of the edited procedure's call sites differ, so the
     propagation above can change only formal slots; the globals of every
     entry and record (program-wide constants over unchanged MOD/REF
     closures) cannot change.  Three kinds of rows are re-boxed: the entry
     of a procedure whose formal slots changed, the call records of the
     edited procedure, and those of a caller one of whose pass-through
     formal slots changed.  Every other row is [prev]'s, shared. *)
  let final k = if value k = P.top then P.bot else value k in
  let entry_of (pid : Prog.Proc.id) =
    let nf = n_formals.((pid :> int)) in
    (* A formal nothing was ever propagated to (its procedure has no
       processed call sites) is not a constant. *)
    Array.init nf (fun i -> P.to_t (final (slot pid i)))
  in
  let globals_of proc =
    Modref.call_global_refs ctx.Context.modref ~callee:proc
    |> List.map (fun (gv : Fsicp_cfg.Ir.var) ->
           ( gv.Fsicp_cfg.Ir.vid,
             match global_const gv.Fsicp_cfg.Ir.vid with
             | Some v -> v
             | None -> Lattice.Bot ))
  in
  (* The final status of every argument (recomputed after convergence, so
     pass-through statuses are not stale) and of every global in the
     callee's REF closure; [prev_row] lends its unchanged globals. *)
  let row_of (caller_id : Prog.Proc.id) prev_row =
    let s = sums.((caller_id :> int)) in
    let caller = s.Summary.ps_name in
    let out = Callgraph.out_edges pcg caller_id in
    Array.of_list
      (List.map
         (fun (c : Summary.call_summary) ->
           let cr_args =
             Array.map
               (fun arg ->
                 match arg with
                 | Summary.Alit v -> Context.censor ctx (Lattice.Const v)
                 | Summary.Aglobal g -> (
                     match global_const (Prog.Var.intern g) with
                     | Some v -> v
                     | None -> Lattice.Bot)
                 | Summary.Aformal i ->
                     let w = value (slot caller_id i) in
                     if
                       P.is_const w
                       && not
                            (Modref.formal_modified ctx.Context.modref caller
                               i)
                     then P.to_t w
                     else Lattice.Bot
                 | Summary.Alocal _ | Summary.Aexpr -> Lattice.Bot)
               c.Summary.cs_args
           in
           let cr_globals =
             match prev_row with
             | Some row ->
                 (Option.get row.(c.Summary.cs_index)).Solution.cr_globals
             | None -> globals_of c.Summary.cs_callee
           in
           Some
             {
               Solution.cr_caller = caller_id;
               cr_cs_index = c.Summary.cs_index;
               cr_callee = out.(c.Summary.cs_index).Callgraph.callee;
               cr_executable = true;
               cr_args;
               cr_globals;
             })
         s.Summary.ps_calls)
  in
  (* From scratch the base is empty and every slot and row counts as
     changed. *)
  let fresh = Option.is_none prev in
  let entries, call_index, edited =
    match prev with
    | Some ((prev : Solution.t), (edited : Prog.Proc.id)) ->
        ( Prog.Proc.Tbl.copy prev.Solution.entries,
          Prog.Proc.Tbl.copy prev.Solution.call_index,
          (edited :> int) )
    | None -> (Prog.tbl db Solution.empty_entry, Prog.tbl db [||], -1)
  in
  let reboxed = ref 0 in
  let changed = Array.make n_slots false in
  let passes_changed_slot pid (s : Summary.proc_summary) =
    List.exists
      (fun (c : Summary.call_summary) ->
        Array.exists
          (function
            | Summary.Aformal i -> changed.(slot pid i)
            | Summary.Alit _ | Summary.Aglobal _ | Summary.Alocal _
            | Summary.Aexpr ->
                false)
          c.Summary.cs_args)
      s.Summary.ps_calls
  in
  for p = 0 to n - 1 do
    let pid = pcg.Callgraph.nodes.(p) in
    let e = Prog.Proc.Tbl.get entries pid in
    let entry_dirty = ref fresh in
    if not fresh then
      for i = 0 to n_formals.(p) - 1 do
        let w = final (slot pid i) in
        let v = e.Solution.pe_formals.(i) in
        let same =
          match v with
          | Lattice.Top -> false
          | Lattice.Bot -> w = P.bot
          | Lattice.Const _ -> P.is_const w && Lattice.equal (P.to_t w) v
        in
        if not same then begin
          changed.(slot pid i) <- true;
          entry_dirty := true
        end
      done;
    if !entry_dirty then begin
      incr reboxed;
      Prog.Proc.Tbl.set entries pid
        {
          Solution.pe_formals = entry_of pid;
          pe_globals =
            (if fresh then
               List.sort
                 (fun (a, _) (b, _) -> Prog.Var.compare a b)
                 (globals_of (Prog.proc_name db pid))
             else e.Solution.pe_globals);
        }
    end;
    if
      fresh || p = edited
      || (!entry_dirty && passes_changed_slot pid sums.(p))
    then begin
      incr reboxed;
      let row = Prog.Proc.Tbl.get call_index pid in
      Prog.Proc.Tbl.set call_index pid
        (row_of pid (if fresh then None else Some row))
    end
  done;
  if not fresh then Trace.add c_reboxed !reboxed;
  {
    Solution.method_name;
    db;
    entries;
    call_index;
    scc_runs = 0;
    scc_results = Prog.tbl db None;
  }

(** [solve ?prev ctx] — the flow-insensitive solution.  [prev = (sol,
    edited)] patches [sol], the solution of this context's program before
    a shape-preserving edit ({!Engine}'s incremental route) of procedure
    [edited]: the propagation re-runs in full, but only the rows it can
    have changed are rebuilt, and the result equals a from-scratch solve. *)
let solve ?prev (ctx : Context.t) : Solution.t =
  Trace.next_epoch ();
  Trace.span "fi:solve" (fun () -> solve_body ?prev ctx)
