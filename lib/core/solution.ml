(** The result of an interprocedural constant propagation method.

    All methods (flow-insensitive, flow-sensitive, the jump-function
    baselines, the reference iterative solver) produce the same shape, which
    the metrics ({!Metrics}), the transformation ({!Transform}) and the
    tests consume uniformly:

    - per reachable procedure, the lattice value of every formal at entry
      (Table 2's "interprocedural propagated constants");
    - per reachable procedure, the lattice value at entry of the globals the
      procedure may reference;
    - per call site, the value of every argument and relevant global at the
      site as established by the method (Table 1's "call site constant
      candidates").

    Per-procedure state is dense: {!Prog.Proc.Tbl} arrays indexed by the
    program database's procedure ids, and a per-caller [cs_index]-indexed
    call-record index.  Names are recovered from the database only in the
    user-facing accessors ({!constant_formals}, {!pp}, ...). *)

open Fsicp_prog
open Fsicp_scc

type callsite_record = {
  cr_caller : Prog.Proc.id;
  cr_cs_index : int;  (** textual call-site index within the caller *)
  cr_callee : Prog.Proc.id;
  cr_executable : bool;
      (** could the method prove the site unreachable?  Flow-insensitive
          methods always say [true]; the flow-sensitive method marks sites
          in SCC-dead blocks [false], and such sites propagate nothing *)
  cr_args : Lattice.t array;  (** value of each argument at the site *)
  cr_globals : (Prog.Var.id * Lattice.t) list;
      (** value at the site of each global in the callee's REF closure,
          keyed by interned variable id *)
}

type proc_entry = {
  pe_formals : Lattice.t array;
  pe_globals : (Prog.Var.id * Lattice.t) list;
      (** entry value of each global the procedure may reference, keyed by
          interned variable id and sorted by it; globals not listed are
          unknown (bottom) *)
}

type t = {
  method_name : string;
  db : Prog.t;
  entries : proc_entry Prog.Proc.Tbl.t;  (** per reachable procedure *)
  call_index : callsite_record option array Prog.Proc.Tbl.t;
      (** the call records: one row per caller, indexed by [cs_index].
          This is the only copy — {!call_records} derives the list from it
          in canonical (caller id, [cs_index]) order — so an incremental
          solve patches a solution by copying the dense tables and
          replacing the rows it recomputed, and {!find_call_record} is an
          array load *)
  scc_runs : int;
      (** number of flow-sensitive intraprocedural analyses performed — the
          paper's headline is that the FS method needs exactly one per
          procedure *)
  scc_results : Scc.result option Prog.Proc.Tbl.t;
      (** the per-procedure SCC runs, when the method performs them ([None]
          everywhere for flow-insensitive methods) *)
}

(** Assemble a solution from a list of call records, filing each into its
    caller's row.  When duplicates exist the first record wins. *)
let make ~method_name ~db ~entries ~call_records ~scc_runs ~scc_results : t =
  (* Row sizes: the maximum cs_index per caller among the records. *)
  let n = Prog.n_procs db in
  let width = Array.make n 0 in
  List.iter
    (fun cr ->
      let c = (cr.cr_caller :> int) in
      width.(c) <- max width.(c) (cr.cr_cs_index + 1))
    call_records;
  let call_index = Prog.tbl_init db (fun pid -> Array.make width.((pid :> int)) None) in
  List.iter
    (fun cr ->
      let row = Prog.Proc.Tbl.get call_index cr.cr_caller in
      if row.(cr.cr_cs_index) = None then row.(cr.cr_cs_index) <- Some cr)
    call_records;
  { method_name; db; entries; call_index; scc_runs; scc_results }

(** Every call record, caller id ascending, then [cs_index] ascending. *)
let fold_call_records f t acc =
  Prog.Proc.Tbl.fold
    (fun _ row acc ->
      Array.fold_left
        (fun acc -> function Some cr -> f cr acc | None -> acc)
        acc row)
    t.call_index acc

let call_records t = List.rev (fold_call_records List.cons t [])

let empty_entry = { pe_formals = [||]; pe_globals = [] }
let proc_name t pid = Prog.proc_name t.db pid
let entry_at t pid = Prog.Proc.Tbl.get t.entries pid

let entry t proc =
  match Prog.proc_id t.db proc with
  | Some pid -> entry_at t pid
  | None -> empty_entry

let entry_opt t proc =
  Option.map (entry_at t) (Prog.proc_id t.db proc)

(** Entry lattice value of formal [i] of [proc]. *)
let formal_value t proc i : Lattice.t =
  let e = entry t proc in
  if i < Array.length e.pe_formals then e.pe_formals.(i) else Lattice.Bot

(** Entry lattice value of global [g] (a source spelling) in [proc]. *)
let global_value t proc g : Lattice.t =
  match List.assoc_opt (Prog.Var.intern g) (entry t proc).pe_globals with
  | Some v -> v
  | None -> Lattice.Bot

(** Constant formals, as [(proc, index, value)]. *)
let constant_formals t : (string * int * Fsicp_lang.Value.t) list =
  Prog.Proc.Tbl.fold
    (fun pid e acc ->
      let proc = proc_name t pid in
      let acc' = ref acc in
      Array.iteri
        (fun i v ->
          match v with
          | Lattice.Const value -> acc' := (proc, i, value) :: !acc'
          | Lattice.Top | Lattice.Bot -> ())
        e.pe_formals;
      !acc')
    t.entries []
  |> List.sort compare

(** Constant globals at procedure entries, as [(proc, global, value)]. *)
let constant_globals t : (string * string * Fsicp_lang.Value.t) list =
  Prog.Proc.Tbl.fold
    (fun pid e acc ->
      let proc = proc_name t pid in
      List.fold_left
        (fun acc (g, v) ->
          match v with
          | Lattice.Const value -> (proc, Prog.Var.name g, value) :: acc
          | Lattice.Top | Lattice.Bot -> acc)
        acc e.pe_globals)
    t.entries []
  |> List.sort compare

let find_call_record t ~caller ~cs_index =
  let row = Prog.Proc.Tbl.get t.call_index caller in
  if cs_index < Array.length row then row.(cs_index) else None

(* Digest writers: straight into the buffer, no intermediate strings.
   [add_lattice] spells a value exactly as {!Lattice.to_string} does. *)
let add_value b (v : Fsicp_lang.Value.t) =
  match v with
  | Fsicp_lang.Value.Int n -> Buffer.add_string b (string_of_int n)
  | Fsicp_lang.Value.Real r ->
      Buffer.add_string b (Fsicp_lang.Value.real_to_string r)

let add_lattice b (v : Lattice.t) =
  match v with
  | Lattice.Top -> Buffer.add_string b "⊤"
  | Lattice.Bot -> Buffer.add_string b "⊥"
  | Lattice.Const c -> add_value b c

let add_word b w =
  if w = Lattice.P.top then Buffer.add_string b "⊤"
  else if w = Lattice.P.bot then Buffer.add_string b "⊥"
  else add_value b (Lattice.P.const_value w)

(* [ g=v] per global, in name order: a solution's global lists are sorted
   by interned id (or not at all), and ids depend on the order in which
   the process happened to intern the names. *)
let add_globals b (gs : (Prog.Var.id * Lattice.t) list) =
  let by_name =
    match gs with
    | [] | [ _ ] -> gs
    | _ ->
        List.stable_sort
          (fun (g, _) (h, _) ->
            String.compare (Prog.Var.name g) (Prog.Var.name h))
          gs
  in
  List.iter
    (fun (g, v) ->
      Buffer.add_char b ' ';
      Buffer.add_string b (Prog.Var.name g);
      Buffer.add_char b '=';
      add_lattice b v)
    by_name

let hex = "0123456789abcdef"

(** Canonical full print — every field down to the per-procedure SCC
    results — keyed by {e names}, never by the ids a particular context
    or process minted (globals come out in name order), so digests of
    independent solves of the same program are comparable.  Two solutions
    are byte-identical iff their digests are equal: the incremental
    engine's correctness oracle and the serve daemon's [digest] request
    are both this function. *)
let digest (s : t) : string =
  let b = Buffer.create 4096 in
  let db = s.db in
  let str = Buffer.add_string b in
  str "method ";
  str s.method_name;
  str " scc_runs ";
  str (string_of_int s.scc_runs);
  Buffer.add_char b '\n';
  Prog.Proc.Tbl.iteri
    (fun pid e ->
      str "entry ";
      str (Prog.proc_name db pid);
      Buffer.add_char b ':';
      Array.iter
        (fun v ->
          Buffer.add_char b ' ';
          add_lattice b v)
        e.pe_formals;
      add_globals b e.pe_globals;
      Buffer.add_char b '\n')
    s.entries;
  fold_call_records
    (fun cr () ->
      str "call ";
      str (Prog.proc_name db cr.cr_caller);
      Buffer.add_char b '#';
      str (string_of_int cr.cr_cs_index);
      str "->";
      str (Prog.proc_name db cr.cr_callee);
      str (if cr.cr_executable then " exec=true:" else " exec=false:");
      Array.iter
        (fun v ->
          Buffer.add_char b ' ';
          add_lattice b v)
        cr.cr_args;
      add_globals b cr.cr_globals;
      Buffer.add_char b '\n')
    s ();
  Prog.Proc.Tbl.iteri
    (fun pid r ->
      match r with
      | None -> ()
      | Some (r : Scc.result) ->
          str "scc ";
          str (Prog.proc_name db pid);
          str " values:";
          Array.iter
            (fun w ->
              Buffer.add_char b ' ';
              add_word b w)
            r.Scc.values;
          str " blocks:";
          Array.iter
            (fun x -> Buffer.add_char b (if x then '1' else '0'))
            r.Scc.block_executable;
          str " edges:";
          Bytes.iter
            (fun c ->
              let k = Char.code c in
              Buffer.add_char b hex.[k lsr 4];
              Buffer.add_char b hex.[k land 15])
            r.Scc.edge_exec;
          Buffer.add_char b '\n')
    s.scc_results;
  Buffer.contents b

let pp ppf t =
  Fmt.pf ppf "method %s (%d SCC runs):@\n" t.method_name t.scc_runs;
  List.iter
    (fun (p, i, v) ->
      Fmt.pf ppf "  %s formal#%d = %a@\n" p i Fsicp_lang.Value.pp v)
    (constant_formals t);
  List.iter
    (fun (p, g, v) ->
      Fmt.pf ppf "  %s global %s = %a@\n" p g Fsicp_lang.Value.pp v)
    (constant_globals t)
