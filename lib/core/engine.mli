(** Long-lived analysis session with incremental re-analysis — the core of
    [fsicp serve].

    Holds the {!Context.t} and the current flow-insensitive and
    flow-sensitive solutions hot across procedure-body edits.  A
    shape-preserving edit (same procedures, same callee sequences, same
    IPA summary shape) checks and invalidates only the edited procedure,
    patches the flow-insensitive solution's changed rows, and re-drives
    the flow-sensitive wavefront over the downstream cone of the edit
    (plus back-edge-reached procedures whose flow-insensitive records
    changed), sharing every other row with the previous solutions: O(cone)
    plus one packed O(n) flow-insensitive pass.  A shape-changing edit
    falls back to a full rebuild.  In both cases {!solution} and
    {!fi_solution} are identical to from-scratch solves of the edited
    program, at any [jobs] — the differential oracle checks this
    byte-for-byte over random edit sequences. *)

open Fsicp_lang

type t

type outcome =
  | Incremental of { dirty : int; total : int }
      (** [dirty] procedures re-driven out of [total] reachable *)
  | Rebuilt of string  (** full rebuild, with the reason *)

(** Build the context and solve both methods from scratch.
    @raise Sema.Illformed on an ill-formed program. *)
val create : ?floats:bool -> ?jobs:int -> Ast.program -> t

val context : t -> Context.t

(** The current flow-sensitive solution. *)
val solution : t -> Solution.t

(** The current flow-insensitive solution: the back-edge seed, the base
    the next edit patches, and serve's answer to [query-entry] with
    method [fi]. *)
val fi_solution : t -> Solution.t

(** Session counters: [procs], [edits], [incremental_edits], [rebuilds],
    [edit_epoch]. *)
val stats : t -> (string * int) list

(** Replace procedure [p.pname]'s definition (or add a new procedure) and
    re-establish both solutions, incrementally when the edit preserves the
    program shape.  An edit that keeps the procedure's name and formals is
    checked with {!Sema.check_proc} alone; any other runs the whole
    {!Sema.check} (counted by the ["engine.sema.full"] trace counter).
    @raise Sema.Illformed when the edited program fails {!Sema.check};
    engine state is untouched in that case. *)
val edit_proc : ?jobs:int -> t -> Ast.proc -> outcome

(**/**)

(** Exposed for tests: shape equality of two procedure summaries — the
    exact condition for the incremental route. *)
val summary_shape_equal :
  Fsicp_ipa.Summary.proc_summary -> Fsicp_ipa.Summary.proc_summary -> bool
