(** Flow-insensitive interprocedural constant propagation (paper Figure 3):
    optimistic lattice over formals with the [fp_bind] pass-through relation
    and a lowering worklist for PCG cycles; block-data globals minus the
    program-wide MOD set.  No intraprocedural analysis is performed — this
    is the cheap sound method the flow-sensitive traversal substitutes on
    back edges. *)

val method_name : string

(** [solve ?prev ctx] — the flow-insensitive solution.

    [prev = (sol, edited)] makes the solve a patch of [sol]: [sol] must be
    this method's solution of the context's program as it stood before a
    shape-preserving edit of procedure [edited] (same summaries shape, so
    only literal payloads at [edited]'s call sites differ — the incremental
    {!Engine} route).  The packed propagation re-runs in full; then only
    the entries whose formal slots changed, [edited]'s call records and
    the records of callers whose pass-through formal slots changed are
    re-boxed (counted by the ["fi.patch.reboxed"] trace counter), and
    every other row is shared with [sol].  The result equals a
    from-scratch solve, which is the same code patching nothing. *)
val solve :
  ?prev:Solution.t * Fsicp_prog.Prog.Proc.id -> Context.t -> Solution.t
