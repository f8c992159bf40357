(** Flow-sensitive interprocedural constant propagation (paper Figure 4) —
    the paper's contribution.  One forward topological traversal of the PCG
    interleaves the Wegman–Zadeck SCC analysis with interprocedural meets
    at call sites; back edges take the flow-insensitive solution; each
    procedure receives exactly one flow-sensitive analysis, recursion
    included.  On acyclic PCGs the result equals the iterative
    flow-sensitive fixpoint ({!Reference}).

    The traversal is a sequential loop over procedure ids in ascending
    (reverse-postorder) order, so every forward caller of a procedure is
    analysed before it; entry meets pull the callers' call records in
    canonical in-edge order.  Only the SSA pre-build of {!solve} runs on
    several domains, and the solution is identical for every [jobs]. *)

val method_name : string

(** [call_def_by_callee calls f] — the SCC kernel's per-callee
    call-definition hook ([Scc.config.call_def_value]) built from a
    per-call oracle [f] answering in packed words: the meet of [f] over
    the calls to the queried callee among [calls] (a procedure's
    {!Fsicp_ssa.Ssa.call_sites}), ⊥ when there are none.  The calls are
    indexed by callee once. *)
val call_def_by_callee :
  (int * int * Fsicp_ssa.Ssa.call) list ->
  (Fsicp_ssa.Ssa.call -> Fsicp_cfg.Ir.var -> int) ->
  callee:string ->
  Fsicp_cfg.Ir.var ->
  int

(** [solve ?jobs ?fi ?call_def_value ctx]:
    [jobs] is the number of domains the SSA pre-build runs on (default
    {!Fsicp_par.Par.default_jobs}; at [1] each procedure's SSA is built on
    its turn in the traversal, and every value yields the same solution);
    [fi] overrides the flow-insensitive solution used for back edges
    (computed on demand only when the PCG has cycles, as in the paper);
    [call_def_value] refines post-call values of call-defined variables —
    the hook the return-constants extension uses; it answers in packed
    lattice words ({!Fsicp_scc.Lattice.P}). *)
val solve :
  ?jobs:int ->
  ?fi:Solution.t ->
  ?call_def_value:
    (caller:string -> Fsicp_ssa.Ssa.call -> Fsicp_cfg.Ir.var -> int) ->
  Context.t ->
  Solution.t

(** [resolve ~fi ~prev ~dirty ctx] — incremental re-solve after a
    shape-preserving procedure edit ({!Engine} is the intended caller).

    [dirty] is the forward-edge cone ({!Fsicp_callgraph.Callgraph.cone}) of
    the edited procedures plus every callee of a back edge whose
    flow-insensitive record changed; [fi] is the fresh flow-insensitive
    solution; [prev] the previous flow-sensitive one.  Only the cone is
    re-driven (unchanged entry vectors inside it hit the SCC memo);
    procedures outside it reuse their previous entry, call records and SCC
    result verbatim, and no per-procedure work touches them — not even an
    SSA cache scan.  The returned solution is identical to a from-scratch
    {!solve} of the edited program; the saved work is visible in the
    ["fs.resolve.dirty"] / ["fs.resolve.reused"] / ["scc.memo_hits"] trace
    counters. *)
val resolve :
  fi:Solution.t ->
  prev:Solution.t ->
  dirty:Fsicp_prog.Prog.Proc.id array ->
  Context.t ->
  Solution.t
