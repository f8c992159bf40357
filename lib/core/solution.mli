(** The result shape shared by every interprocedural constant propagation
    method: per-procedure entry lattice values (formals and globals) and
    per-call-site argument/global values — the two things the paper's
    metrics count.

    Procedures are identified by the program database's dense
    {!Fsicp_prog.Prog.Proc.id}s; per-procedure state is stored in
    {!Prog.Proc.Tbl} arrays and call records are indexed by
    [(caller id, cs_index)] without any string hashing.  Ids come from the
    {!Fsicp_callgraph.Callgraph.t} the solution was computed over; ids from
    any other program database are out of contract. *)

open Fsicp_prog
open Fsicp_scc

type callsite_record = {
  cr_caller : Prog.Proc.id;
  cr_cs_index : int;
  cr_callee : Prog.Proc.id;
  cr_executable : bool;
      (** false when the method proved the site unreachable; such sites
          propagate nothing *)
  cr_args : Lattice.t array;
  cr_globals : (Prog.Var.id * Lattice.t) list;
      (** values at the site of the globals in the callee's REF closure *)
}

type proc_entry = {
  pe_formals : Lattice.t array;
  pe_globals : (Prog.Var.id * Lattice.t) list;
}

type t = {
  method_name : string;
  db : Prog.t;  (** the program database the ids below belong to *)
  entries : proc_entry Prog.Proc.Tbl.t;
  call_index : callsite_record option array Prog.Proc.Tbl.t;
      (** the call records, one row per caller indexed by [cs_index] —
          their only copy; {!call_records} derives the list *)
  scc_runs : int;
      (** flow-sensitive intraprocedural analyses performed — the paper's
          headline is exactly one per procedure for the FS method *)
  scc_results : Scc.result option Prog.Proc.Tbl.t;
      (** per-procedure SCC runs, when the method performs them ([None]
          everywhere for flow-insensitive methods) *)
}

(** Assemble a solution from a list of call records, filing each into the
    dense [(caller, cs_index)] rows (the first of duplicates wins). *)
val make :
  method_name:string ->
  db:Prog.t ->
  entries:proc_entry Prog.Proc.Tbl.t ->
  call_records:callsite_record list ->
  scc_runs:int ->
  scc_results:Scc.result option Prog.Proc.Tbl.t ->
  t

(** Every call record in canonical order: caller id ascending, then
    [cs_index] ascending. *)
val call_records : t -> callsite_record list

(** [fold_call_records f t acc] folds over {!call_records} without
    building the list. *)
val fold_call_records : (callsite_record -> 'a -> 'a) -> t -> 'a -> 'a

val empty_entry : proc_entry

val proc_name : t -> Prog.Proc.id -> string
val entry_at : t -> Prog.Proc.id -> proc_entry

(** Name-based lookups, for boundary code that still holds AST names
    (unreachable procedures resolve to {!empty_entry} / [None]). *)
val entry : t -> string -> proc_entry

val entry_opt : t -> string -> proc_entry option

(** Entry lattice value of the [i]-th formal of a procedure. *)
val formal_value : t -> string -> int -> Lattice.t

(** Entry lattice value of a global in a procedure ([Bot] if untracked). *)
val global_value : t -> string -> string -> Lattice.t

val constant_formals : t -> (string * int * Fsicp_lang.Value.t) list
val constant_globals : t -> (string * string * Fsicp_lang.Value.t) list

val find_call_record :
  t -> caller:Prog.Proc.id -> cs_index:int -> callsite_record option

(** Canonical full print — entries, call records, per-procedure SCC
    results, [scc_runs] — keyed by names, never by context- or
    process-minted ids (globals are listed in name order), so digests of
    independent solves of the same program are comparable.
    Byte-equality of digests is the definition of "identical solutions"
    used by the incremental-engine oracle and the serve daemon. *)
val digest : t -> string

val pp : t Fmt.t
