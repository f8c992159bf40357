(** Static single assignment form (Cytron et al.), over the {!Fsicp_cfg.Ir}
    quad IR.

    The paper's intraprocedural analysis — Wegman–Zadeck Sparse Conditional
    Constant propagation — is "built upon an implementation of SSA data-flow
    analysis"; this module is that implementation.

    Besides ordinary assignments, {e call} instructions are definition
    points: a call may write through its by-reference actuals and may modify
    globals.  Which variables a particular call defines, and which globals'
    values at the call the interprocedural phase wants recorded, are
    supplied by a {!call_effects} oracle (in the full pipeline this oracle
    is the interprocedural MOD/REF information; tests can use the
    conservative {!conservative_effects}).

    Every variable has an implicit {e entry definition} (version 0) in the
    entry block, whose lattice value the constant propagator takes from its
    entry environment — this is precisely the hook through which
    interprocedural constants enter the intraprocedural analysis.

    Phi placement is semi-pruned (Briggs, Cooper, Harvey and Simpson):
    only formals, globals and variables that some block reads before
    defining get phis, so the temporaries lowering creates for compound
    expressions get none. *)

open Fsicp_lang
open Fsicp_cfg

(** An SSA name: a base IR variable plus version.  [id] is a dense index
    unique within the procedure, used for constant-time lattice lookups. *)
type name = { base : Ir.var; ver : int; id : int }

let pp_name ppf n = Fmt.pf ppf "%a.%d" Ir.Var.pp n.base n.ver

type operand = Oconst of Value.t | Oname of name

let pp_operand ppf = function
  | Oconst v -> Value.pp ppf v
  | Oname n -> pp_name ppf n

type rhs =
  | Copy of operand
  | Unop of Ops.unop * operand
  | Binop of Ops.binop * operand * operand

let pp_rhs ppf = function
  | Copy o -> pp_operand ppf o
  | Unop (op, o) -> Fmt.pf ppf "%a%a" Ops.pp_unop op pp_operand o
  | Binop (op, a, b) ->
      Fmt.pf ppf "%a %a %a" pp_operand a Ops.pp_binop op pp_operand b

type ssa_arg = { sa_operand : operand; sa_byref : Ir.var option }

type call = {
  c_cs_id : int;  (** call-site id (textual order, from lowering) *)
  c_callee : string;
  c_args : ssa_arg array;
  c_global_uses : (Ir.var * name) array;
      (** reaching SSA version of each global whose value at this call the
          interprocedural analysis needs (callee's REF set) *)
  c_defs : (Ir.var * name) array;
      (** fresh versions for the variables this call may modify *)
  c_guse_slots : int array;
      (** ascending var slots of the [c_global_uses] entries *)
  c_guse_ids : int array;
      (** name ids parallel to [c_guse_slots]: the compact lookup table
          behind {!val:Fsicp_scc.Scc.global_at_call} *)
  mutable c_def_base : int;
      (** index of this call's first def in the procedure's flat call-def
          numbering (block order); the SCC kernel resolves the oracle value
          of def [k] into slot [c_def_base + k] of one dense vector *)
}

type instr =
  | Assign of name * rhs
  | Kill of (Ir.var * name) array
      (** alias kill: fresh, unknown-valued versions of variables whose
          location may have been written by the {e preceding} assignment
          through a reference-parameter alias.  Keeps SSA sound when a
          store through one name may change the value of another. *)
  | Call of call
  | Print of operand

type phi = {
  p_name : name;
  p_args : (int * name) array;  (** (predecessor block, incoming name) *)
  p_edges : int array;
      (** dense edge id of each incoming CFG edge, parallel to [p_args] *)
}

type terminator = Goto of int | Cond of operand * int * int | Ret

type block = {
  phis : phi array;
  instrs : instr array;
  term : terminator;
}

(** A use site; pushing these onto the SCC's SSA worklist re-evaluates the
    corresponding phi/instruction/terminator. *)
type use_site =
  | Uphi of int * int  (** (block, phi index) *)
  | Uinstr of int * int  (** (block, instruction index) *)
  | Uterm of int  (** block terminator (condition) *)

(* Dense site ids: every phi, instruction and terminator of the procedure
   gets one int id, numbered per block in order (phis, then instructions,
   then the terminator).  [site_code] packs the decoded form into one
   tagged int: bits [1:0] = kind (0 phi, 1 instr, 2 term), bits [33:2] =
   block, bits [62:34] = index within the block.  The CSR def-use chains
   and the SCC worklists traffic in site ids only. *)
let site_tag_phi = 0
let site_tag_instr = 1
let site_tag_term = 2

let[@inline] pack_site ~tag ~block ~index =
  (index lsl 34) lor (block lsl 2) lor tag

(** Extension point for analysis-private per-procedure caches (the SCC
    engine hangs its entry-vector memo here); lives and dies with the
    [proc] value. *)
type memo = ..

type memo += No_memo

type proc = {
  name : string;
  formals : Ir.var array;
  blocks : block array;
  entry : int;
  preds : int list array;
  dom : Dominance.t;
  entry_names : (Ir.var * name) array;  (** version-0 names, all variables *)
  exit_names : (int * (Ir.var * name) array) list;
      (** for each [Ret]-terminated block: the SSA version of every formal
          and global reaching the return — the values a call observes after
          the procedure finishes (drives the return-constants extension) *)
  n_names : int;
  defs : int array;
      (** name id -> packed (tag, block, index) def site as in [site_code]
          (phi or instr tag), or -1 for a version-0 entry definition *)
  use_offsets : int array;
      (** CSR row starts into [use_sites], length [n_names + 1]: the use
          sites of name [id] are [use_sites.(use_offsets.(id)) ..
          use_sites.(use_offsets.(id + 1) - 1)] *)
  use_sites : int array;  (** CSR payload: dense site ids *)
  n_sites : int;
  site_code : int array;  (** site id -> packed (tag, block, index) *)
  n_edges : int;
  edge_base : int array;
      (** block -> first out-edge id, length [nblocks + 1]; out edges are
          numbered consecutively in successor order ([Cond] with equal arms
          collapses to one edge, mirroring [Ir.successors]) *)
  edge_dst : int array;  (** edge id -> destination block *)
  vars : Ir.var array;  (** the variable universe, in slot order *)
  var_keys : int array;
      (** [Ir.Var.slot_key] of each slot, ascending — {!slot_of} binary
          searches this instead of hashing *)
  entry_ids : int array;  (** var slot -> version-0 name id *)
  exit_ids : (int * int array) array;
      (** per [Ret] block: var slot -> reaching name id, or -1 *)
  calls : (int * int * call) array;
      (** every call as [(block, instr index, call)], block order *)
  n_call_defs : int;  (** total [c_defs] across [calls] *)
  n_call_sites : int;
  mutable memo : memo;
}

(** Oracle describing interprocedural side effects of calls and of stores
    through possibly-aliased names. *)
type call_effects = {
  defs_of_call : callee:string -> byref_args:Ir.var option array -> Ir.var list;
      (** variables (caller-side) the call may define *)
  globals_used_by : callee:string -> Ir.var list;
      (** globals whose reaching value should be recorded at the call *)
  assign_aliases : Ir.var -> Ir.var list;
      (** variables whose location a store to the given variable may also
          write (reference-parameter may-aliases); each direct assignment
          is followed by a {!Kill} of these *)
}

(** Sound default when MOD/REF and alias information are unavailable: a
    call may define every by-reference actual and every global of the
    program; the value of every global is relevant; and — since any two
    by-reference names could alias — a store to a formal clobbers every
    other formal and every global (and vice versa).  The full pipeline
    replaces this with the {!Fsicp_ipa} oracles, which is where all the
    precision comes from. *)
let conservative_effects ?(formals : Ir.var list = []) (prog : Ast.program) :
    call_effects =
  let globals = List.map Ir.global prog.Ast.globals in
  {
    defs_of_call =
      (fun ~callee:_ ~byref_args ->
        let byrefs =
          Array.to_list byref_args |> List.filter_map (fun x -> x)
        in
        List.sort_uniq Ir.Var.compare (byrefs @ globals));
    globals_used_by = (fun ~callee:_ -> globals);
    assign_aliases =
      (fun v ->
        match v.Ir.vkind with
        | Ir.Formal _ | Ir.Global ->
            List.filter
              (fun w -> not (Ir.Var.equal v w))
              (formals @ globals)
        | Ir.Local | Ir.Temp -> []);
  }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let byref_array (args : Ir.arg array) : Ir.var option array =
  Array.map (fun (a : Ir.arg) -> a.Ir.a_byref) args

(* Domain-local construction scratch, all indexed by [Ir.Var.slot_key]:
   an epoch-stamped sparse map to the procedure-local dense slot (a key is
   bound iff [stamp.(k) = epoch]; bumping the epoch invalidates every
   binding in O(1), so consecutive [of_proc] calls on one domain share the
   arrays without clearing), and [last_def]: the tag of the block that
   last defined the key, or [-epoch] once the key is known non-local.
   Block tags come from one counter that is never reset, and epochs are
   positive, so a stale [last_def] entry can match neither the current
   block nor the current epoch's mark.  [Domain.DLS] keeps the scratch
   race-free when [Context.build_ssa] constructs procedures on several
   domains. *)
module Scratch = struct
  type t = {
    mutable epoch : int;
    mutable stamp : int array;
    mutable slot : int array;
    mutable last_def : int array;
    mutable block_tag : int;
  }

  let create () =
    {
      epoch = 0;
      stamp = Array.make 4096 0;
      slot = Array.make 4096 0;
      last_def = Array.make 4096 0;
      block_tag = 0;
    }

  let dls = Domain.DLS.new_key create

  let get () =
    let t = Domain.DLS.get dls in
    t.epoch <- t.epoch + 1;
    t

  let next_block_tag t =
    t.block_tag <- t.block_tag + 1;
    t.block_tag

  let ensure t k =
    let cap = Array.length t.stamp in
    if k >= cap then begin
      let n = max (k + 1) (2 * cap) in
      let grow a =
        let a' = Array.make n 0 in
        Array.blit a 0 a' 0 cap;
        a'
      in
      t.stamp <- grow t.stamp;
      t.slot <- grow t.slot;
      t.last_def <- grow t.last_def
    end
end

(** Build SSA form for a lowered procedure. *)
let of_proc ?(effects : call_effects option) (prog : Ast.program)
    (p : Ir.proc) : proc =
  let effects =
    match effects with
    | Some e -> e
    | None ->
        conservative_effects ~formals:(Array.to_list p.Ir.formals) prog
  in
  let cfg = p.Ir.cfg in
  let nblocks = Array.length cfg.Ir.blocks in
  let preds = Ir.predecessors cfg in
  let dom = Dominance.compute cfg in
  let df = Dominance.frontiers cfg dom in

  (* -- The variable universe ---------------------------------------- *)
  (* One pass over the IR collects occurring vars, call-defined vars,
     recorded globals and alias kills — deduplicated through the
     epoch-stamped {!Scratch} (no hashing, no [VarSet] trees) and sorted
     once by [slot_key], which induces exactly the order the original
     [VarSet.elements]-based formulation produced.

     The same pass finds the {e non-local} variables of semi-pruned SSA
     (Briggs et al.): those some block reads before defining them itself.
     Operands, call arguments, a call's recorded REF globals and [Cond]
     operands are uses; assignments, alias kills and call MOD defs are
     definitions.  Every [Ret] reads each formal and global (the exit
     names), so those are non-local by kind.  Any other variable — every
     compiler temporary among them — is read only after a definition in
     its own block, so it needs no phi anywhere. *)
  let scratch = Scratch.get () in
  let epoch = scratch.Scratch.epoch in
  let acc = ref [] in
  let nv = ref 0 in
  let key v =
    let k = Ir.Var.slot_key v in
    Scratch.ensure scratch k;
    if scratch.Scratch.stamp.(k) <> epoch then begin
      scratch.Scratch.stamp.(k) <- epoch;
      acc := v :: !acc;
      incr nv
    end;
    k
  in
  let block_tag = ref 0 in
  let note_use v =
    let k = key v in
    if scratch.Scratch.last_def.(k) <> !block_tag then
      scratch.Scratch.last_def.(k) <- -epoch
  in
  let note_def v =
    let k = key v in
    if scratch.Scratch.last_def.(k) <> -epoch then
      scratch.Scratch.last_def.(k) <- !block_tag
  in
  let note_op = function Ir.Const _ -> () | Ir.Var v -> note_use v in
  let note_rhs = function
    | Ir.Copy o | Ir.Unop (_, o) -> note_op o
    | Ir.Binop (_, a, b) ->
        note_op a;
        note_op b
  in
  Array.iter (fun v -> ignore (key v)) p.Ir.formals;
  (* Per-instruction oracle caches, flat over the instruction ordinal. *)
  let ibase = Array.make (nblocks + 1) 0 in
  for b = 0 to nblocks - 1 do
    ibase.(b + 1) <- ibase.(b) + Array.length cfg.Ir.blocks.(b).Ir.instrs
  done;
  let n_instrs = ibase.(nblocks) in
  let iord b i = ibase.(b) + i in
  let call_ds : Ir.var list array = Array.make (max 1 n_instrs) [] in
  let call_gs : Ir.var list array = Array.make (max 1 n_instrs) [] in
  let kill_at : Ir.var list array = Array.make (max 1 n_instrs) [] in
  (* The alias-kill list of a variable is build-invariant; memoising it per
     assigned variable keeps the oracle's list surgery (closure over the
     alias pairs, sort, self-filter) off the per-assignment path. *)
  let kill_memo : (int, Ir.var list) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun b (blk : Ir.block) ->
      block_tag := Scratch.next_block_tag scratch;
      Array.iteri
        (fun i ins ->
          match ins with
          | Ir.Call { callee; args; _ } ->
              Array.iter (fun (a : Ir.arg) -> note_op a.Ir.a_operand) args;
              let ds =
                effects.defs_of_call ~callee ~byref_args:(byref_array args)
              in
              let gs = effects.globals_used_by ~callee in
              call_ds.(iord b i) <- ds;
              call_gs.(iord b i) <- gs;
              List.iter note_use gs;
              List.iter note_def ds
          | Ir.Assign (v, rhs) -> (
              note_rhs rhs;
              note_def v;
              (* Only formals and globals can carry reference-parameter
                 aliases (both oracles answer [] for locals and temps), so
                 the oracle and the memo are skipped on the common case. *)
              match v.Ir.vkind with
              | Ir.Local | Ir.Temp -> ()
              | Ir.Formal _ | Ir.Global ->
                  let key = Ir.Var.slot_key v in
                  let ks =
                    match Hashtbl.find_opt kill_memo key with
                    | Some ks -> ks
                    | None ->
                        let ks =
                          List.sort_uniq Ir.Var.compare
                            (effects.assign_aliases v)
                          |> List.filter (fun w -> not (Ir.Var.equal v w))
                        in
                        Hashtbl.add kill_memo key ks;
                        ks
                  in
                  if ks <> [] then begin
                    kill_at.(iord b i) <- ks;
                    List.iter note_def ks
                  end)
          | Ir.Print o -> note_op o)
        blk.Ir.instrs;
      match blk.Ir.term with
      | Ir.Cond (c, _, _) -> note_op c
      | Ir.Goto _ | Ir.Ret -> ())
    cfg.Ir.blocks;
  let vars = Array.of_list !acc in
  Array.sort
    (fun a b -> Int.compare (Ir.Var.slot_key a) (Ir.Var.slot_key b))
    vars;
  let nvars = !nv in
  let var_keys = Array.map Ir.Var.slot_key vars in
  (* Rebind keys to dense slots; [ensure] is done growing, so the arrays
     can be captured. *)
  let slot_arr = scratch.Scratch.slot in
  Array.iteri (fun i k -> slot_arr.(k) <- i) var_keys;
  let[@inline] vidx v = slot_arr.(Ir.Var.slot_key v) in
  let nonlocal (v : Ir.var) =
    match v.Ir.vkind with
    | Ir.Formal _ | Ir.Global -> true
    | Ir.Local | Ir.Temp ->
        scratch.Scratch.last_def.(Ir.Var.slot_key v) = -epoch
  in

  (* -- Dense edge ids ------------------------------------------------ *)
  (* Out edges per block, numbered consecutively in successor order.  A
     [Cond] with equal arms contributes one edge (as in [Ir.successors]),
     so every (pred, succ) pair maps to exactly one edge id.  Derived from
     the IR terminators up front so the renaming pass can fill successor
     phi arguments positionally. *)
  let edge_base = Array.make (nblocks + 1) 0 in
  for b = 0 to nblocks - 1 do
    let out =
      match cfg.Ir.blocks.(b).Ir.term with
      | Ir.Goto _ -> 1
      | Ir.Cond (_, t, f) -> if t = f then 1 else 2
      | Ir.Ret -> 0
    in
    edge_base.(b + 1) <- edge_base.(b) + out
  done;
  let n_edges = edge_base.(nblocks) in
  let edge_dst = Array.make (max 1 n_edges) 0 in
  for b = 0 to nblocks - 1 do
    match cfg.Ir.blocks.(b).Ir.term with
    | Ir.Goto t -> edge_dst.(edge_base.(b)) <- t
    | Ir.Cond (_, t, f) ->
        edge_dst.(edge_base.(b)) <- t;
        if t <> f then edge_dst.(edge_base.(b) + 1) <- f
    | Ir.Ret -> ()
  done;
  (* Edge id of the unique (pred, succ) edge. *)
  let edge_id ~pred ~succ =
    match cfg.Ir.blocks.(pred).Ir.term with
    | Ir.Goto _ -> edge_base.(pred)
    | Ir.Cond (_, t, f) ->
        if t = f || t = succ then edge_base.(pred) else edge_base.(pred) + 1
    | Ir.Ret -> assert false
  in
  (* Per block, the incoming edge ids in predecessor-list order (this is
     exactly the [p_edges] vector of every phi of the block, shared), and
     the inverse: each edge's position in its destination's list. *)
  let pred_pos = Array.make (max 1 n_edges) 0 in
  let pred_edge =
    Array.init nblocks (fun s ->
        let arr = Array.make (List.length preds.(s)) 0 in
        List.iteri
          (fun k b ->
            let e = edge_id ~pred:b ~succ:s in
            arr.(k) <- e;
            pred_pos.(e) <- k)
          preds.(s);
        arr)
  in

  (* -- Phi placement (iterated dominance frontier) ------------------- *)
  (* Semi-pruned: only non-local variables get phis.
     Def-site blocks per variable as a CSR (entry block plus every assign,
     kill and call def); the iterated-DF worklist is an int stack and the
     resulting (block, var) placements accumulate into one int buffer that
     a counting sort turns into the per-block phi lists — no cons cell is
     allocated anywhere in the phase. *)
  let dcnt = Array.make (nvars + 1) 0 in
  let bump v = dcnt.(vidx v + 1) <- dcnt.(vidx v + 1) + 1 in
  Array.iteri
    (fun b (blk : Ir.block) ->
      Array.iteri
        (fun i ins ->
          match ins with
          | Ir.Assign (v, _) ->
              bump v;
              List.iter bump kill_at.(iord b i)
          | Ir.Call _ -> List.iter bump call_ds.(iord b i)
          | Ir.Print _ -> ())
        blk.Ir.instrs)
    cfg.Ir.blocks;
  for i = 0 to nvars - 1 do
    dcnt.(i + 1) <- dcnt.(i + 1) + dcnt.(i)
  done;
  let dpay = Array.make (max 1 dcnt.(nvars)) 0 in
  let dfill = Array.make (max 1 nvars) 0 in
  Array.blit dcnt 0 dfill 0 nvars;
  let put v b =
    let s = vidx v in
    dpay.(dfill.(s)) <- b;
    dfill.(s) <- dfill.(s) + 1
  in
  Array.iteri
    (fun b (blk : Ir.block) ->
      Array.iteri
        (fun i ins ->
          match ins with
          | Ir.Assign (v, _) ->
              put v b;
              List.iter (fun w -> put w b) kill_at.(iord b i)
          | Ir.Call _ -> List.iter (fun w -> put w b) call_ds.(iord b i)
          | Ir.Print _ -> ())
        blk.Ir.instrs)
    cfg.Ir.blocks;
  (* Placement loop.  [phi_pairs] records each placement as b * nvars + v;
     placements for one block arrive in ascending-v order (outer loop), so
     the counting sort below reproduces the historical per-block order. *)
  let has_phi_stamp = Array.make nblocks 0 in
  let ever_stamp = Array.make nblocks 0 in
  let work = Array.make (max 1 nblocks) 0 in
  let phi_cnt = Array.make (nblocks + 1) 0 in
  let phi_pairs = ref (Array.make 64 0) in
  let n_pairs = ref 0 in
  let push_pair code =
    let cap = Array.length !phi_pairs in
    if !n_pairs = cap then begin
      let np = Array.make (2 * cap) 0 in
      Array.blit !phi_pairs 0 np 0 cap;
      phi_pairs := np
    end;
    !phi_pairs.(!n_pairs) <- code;
    incr n_pairs
  in
  (* The worker closures are hoisted out of the per-variable loop (the
     iteration state lives in refs) so the loop itself allocates nothing. *)
  let stamp = ref 0 in
  let sp = ref 0 in
  let seed b =
    if ever_stamp.(b) <> !stamp then begin
      ever_stamp.(b) <- !stamp;
      work.(!sp) <- b;
      incr sp
    end
  in
  let cur_v = ref 0 in
  let visit y =
    if has_phi_stamp.(y) <> !stamp then begin
      has_phi_stamp.(y) <- !stamp;
      phi_cnt.(y + 1) <- phi_cnt.(y + 1) + 1;
      push_pair ((y * max 1 nvars) + !cur_v);
      if ever_stamp.(y) <> !stamp then begin
        ever_stamp.(y) <- !stamp;
        work.(!sp) <- y;
        incr sp
      end
    end
  in
  for v = 0 to nvars - 1 do
    if nonlocal vars.(v) then begin
      stamp := v + 1;
      cur_v := v;
      sp := 0;
      seed cfg.Ir.entry;
      for k = dcnt.(v) to dcnt.(v + 1) - 1 do
        seed dpay.(k)
      done;
      while !sp > 0 do
        decr sp;
        let b = work.(!sp) in
        List.iter visit df.(b)
      done
    end
  done;
  for b = 0 to nblocks - 1 do
    phi_cnt.(b + 1) <- phi_cnt.(b + 1) + phi_cnt.(b)
  done;
  (* phi_vars.(b) = var slots needing a phi at b, ascending. *)
  let phi_vars =
    Array.init nblocks (fun b ->
        Array.make (phi_cnt.(b + 1) - phi_cnt.(b)) 0)
  in
  let pfill = Array.make (max 1 nblocks) 0 in
  for k = 0 to !n_pairs - 1 do
    let code = !phi_pairs.(k) in
    let b = code / max 1 nvars and v = code mod max 1 nvars in
    phi_vars.(b).(pfill.(b)) <- v;
    pfill.(b) <- pfill.(b) + 1
  done;

  (* -- Renaming ------------------------------------------------------ *)
  let next_id = ref 0 in
  let next_ver = Array.make (max 1 nvars) 0 in
  let fresh base_idx =
    let v = vars.(base_idx) in
    let n = { base = v; ver = next_ver.(base_idx); id = !next_id } in
    next_ver.(base_idx) <- next_ver.(base_idx) + 1;
    incr next_id;
    n
  in
  (* Reaching definition per var slot, with an undo log replacing the
     per-var cons stacks: entering a block records (slot, previous name)
     pairs in two parallel growable arrays; leaving restores them. *)
  let cur =
    if nvars = 0 then [||]
    else Array.make nvars { base = vars.(0); ver = -1; id = -1 }
  in
  let undo_slot = ref (Array.make 64 0) in
  let undo_prev = ref ([||] : name array) in
  let undo_len = ref 0 in
  let push_undo slot prev =
    let cap = Array.length !undo_slot in
    if Array.length !undo_prev < cap then begin
      let np = Array.make cap prev in
      Array.blit !undo_prev 0 np 0 !undo_len;
      undo_prev := np
    end;
    if !undo_len = cap then begin
      let ns = Array.make (2 * cap) 0 in
      Array.blit !undo_slot 0 ns 0 cap;
      undo_slot := ns;
      let np = Array.make (2 * cap) prev in
      Array.blit !undo_prev 0 np 0 cap;
      undo_prev := np
    end;
    !undo_slot.(!undo_len) <- slot;
    !undo_prev.(!undo_len) <- prev;
    incr undo_len
  in
  let define base_idx n =
    push_undo base_idx cur.(base_idx);
    cur.(base_idx) <- n
  in
  (* Entry definitions: version 0 of every var (never popped). *)
  let entry_names = Array.map (fun v -> (v, fresh (vidx v))) vars in
  Array.iter (fun (_, n) -> cur.(vidx n.base) <- n) entry_names;

  (* Output blocks under construction. *)
  let out_phis : phi array array = Array.make nblocks [||] in
  let out_instrs : instr array array = Array.make nblocks [||] in
  let out_terms : terminator array = Array.make nblocks Ret in
  let exit_names_acc : (int * (Ir.var * name) array) list ref = ref [] in
  (* Preallocated positional phi-argument stores: slot k of a store is the
     incoming value from the block's k-th predecessor, written when that
     predecessor is renamed (which may happen before the block itself). *)
  let args_store : (int * name) array array array =
    if nvars = 0 then Array.make nblocks [||]
    else begin
      let dummy_arg = (-1, { base = vars.(0); ver = -1; id = -1 }) in
      Array.init nblocks (fun s ->
          let np = Array.length pred_edge.(s) in
          Array.init (Array.length phi_vars.(s)) (fun _ ->
              Array.make np dummy_arg))
    end
  in
  (* The formals and globals whose reaching version each return records,
     as ascending var slots. *)
  let n_evars = ref 0 in
  Array.iter
    (fun (v : Ir.var) ->
      match v.Ir.vkind with
      | Ir.Formal _ | Ir.Global -> incr n_evars
      | Ir.Local | Ir.Temp -> ())
    vars;
  let evars = Array.make !n_evars 0 in
  let k = ref 0 in
  Array.iteri
    (fun s (v : Ir.var) ->
      match v.Ir.vkind with
      | Ir.Formal _ | Ir.Global ->
          evars.(!k) <- s;
          incr k
      | Ir.Local | Ir.Temp -> ())
    vars;

  let rename_operand (o : Ir.operand) : operand =
    match o with
    | Ir.Const v -> Oconst v
    | Ir.Var v -> Oname cur.(vidx v)
  in
  let rename_rhs = function
    | Ir.Copy o -> Copy (rename_operand o)
    | Ir.Unop (op, o) -> Unop (op, rename_operand o)
    | Ir.Binop (op, a, b) -> Binop (op, rename_operand a, rename_operand b)
  in
  let dummy_instr = Print (Oconst (Value.Int 0)) in

  let rec rename_block b =
    let depth0 = !undo_len in
    (* Phis define first. *)
    let phis =
      Array.map
        (fun v ->
          let n = fresh v in
          define v n;
          { p_name = n; p_args = [||]; p_edges = [||] })
        phi_vars.(b)
    in
    out_phis.(b) <- phis;
    (* Instructions, into an exactly-sized array.  One IR instruction can
       yield two SSA instructions (an assignment then its alias [Kill]). *)
    let blk = cfg.Ir.blocks.(b) in
    let ninstrs = Array.length blk.Ir.instrs in
    let extra = ref 0 in
    for i = 0 to ninstrs - 1 do
      if kill_at.(iord b i) <> [] then incr extra
    done;
    let out = Array.make (ninstrs + !extra) dummy_instr in
    let ko = ref 0 in
    let emit ins =
      out.(!ko) <- ins;
      incr ko
    in
    Array.iteri
      (fun i ins ->
        match ins with
        | Ir.Assign (v, rhs) ->
            let rhs = rename_rhs rhs in
            let n = fresh (vidx v) in
            define (vidx v) n;
            emit (Assign (n, rhs));
            (match kill_at.(iord b i) with
            | [] -> ()
            | ks ->
                let kills =
                  Array.of_list
                    (List.map
                       (fun w ->
                         let kn = fresh (vidx w) in
                         define (vidx w) kn;
                         (w, kn))
                       ks)
                in
                emit (Kill kills))
        | Ir.Print o -> emit (Print (rename_operand o))
        | Ir.Call { cs_id; callee; args } ->
            let c_args =
              Array.map
                (fun (a : Ir.arg) ->
                  {
                    sa_operand = rename_operand a.Ir.a_operand;
                    sa_byref = a.Ir.a_byref;
                  })
                args
            in
            let gs = call_gs.(iord b i) in
            let ng = List.length gs in
            let c_global_uses =
              if ng = 0 then [||]
              else begin
                let g0 = List.hd gs in
                let arr = Array.make ng (g0, cur.(vidx g0)) in
                let r = ref gs in
                for j = 0 to ng - 1 do
                  (match !r with
                  | g :: tl ->
                      arr.(j) <- (g, cur.(vidx g));
                      r := tl
                  | [] -> assert false)
                done;
                arr
              end
            in
            let c_guse_slots = Array.make ng 0 in
            let c_guse_ids = Array.make ng 0 in
            for j = 0 to ng - 1 do
              let g, n = c_global_uses.(j) in
              c_guse_slots.(j) <- vidx g;
              c_guse_ids.(j) <- n.id
            done;
            (* Parallel insertion sort by slot (ng is small). *)
            for j = 1 to ng - 1 do
              let s = c_guse_slots.(j) and id = c_guse_ids.(j) in
              let m = ref (j - 1) in
              while !m >= 0 && c_guse_slots.(!m) > s do
                c_guse_slots.(!m + 1) <- c_guse_slots.(!m);
                c_guse_ids.(!m + 1) <- c_guse_ids.(!m);
                decr m
              done;
              c_guse_slots.(!m + 1) <- s;
              c_guse_ids.(!m + 1) <- id
            done;
            let ds = call_ds.(iord b i) in
            let nd = List.length ds in
            let c_defs =
              if nd = 0 then [||]
              else begin
                let arr = Array.make nd (List.hd ds, cur.(0)) in
                let r = ref ds in
                for j = 0 to nd - 1 do
                  (match !r with
                  | v :: tl ->
                      let n = fresh (vidx v) in
                      define (vidx v) n;
                      arr.(j) <- (v, n);
                      r := tl
                  | [] -> assert false)
                done;
                arr
              end
            in
            emit
              (Call
                 { c_cs_id = cs_id; c_callee = callee; c_args; c_global_uses;
                   c_defs; c_guse_slots; c_guse_ids; c_def_base = -1 }))
      blk.Ir.instrs;
    assert (!ko = Array.length out);
    out_instrs.(b) <- out;
    (* Record reaching versions of formals and globals at returns. *)
    (match blk.Ir.term with
    | Ir.Ret ->
        exit_names_acc :=
          (b, Array.map (fun s -> (vars.(s), cur.(s))) evars)
          :: !exit_names_acc
    | Ir.Goto _ | Ir.Cond _ -> ());
    (* Terminator. *)
    out_terms.(b) <-
      (match blk.Ir.term with
      | Ir.Goto t -> Goto t
      | Ir.Cond (c, t, f) -> Cond (rename_operand c, t, f)
      | Ir.Ret -> Ret);
    (* Fill phi arguments of successors, positionally. *)
    for e = edge_base.(b) to edge_base.(b + 1) - 1 do
      let s = edge_dst.(e) in
      let pos = pred_pos.(e) in
      let pv = phi_vars.(s) in
      let store = args_store.(s) in
      for pi = 0 to Array.length pv - 1 do
        store.(pi).(pos) <- (b, cur.(pv.(pi)))
      done
    done;
    (* Recurse over dominator-tree children. *)
    List.iter rename_block dom.Dominance.children.(b);
    (* Restore the reaching definitions of the enclosing block. *)
    while !undo_len > depth0 do
      decr undo_len;
      cur.(!undo_slot.(!undo_len)) <- !undo_prev.(!undo_len)
    done
  in
  rename_block cfg.Ir.entry;

  (* Attach the positional argument stores (every phi of a block shares
     the block's predecessor-ordered edge vector).  A store slot left at
     its dummy (an unrenamed, unreachable predecessor) is dropped. *)
  let blocks =
    Array.init nblocks (fun b ->
        let phis =
          Array.mapi
            (fun pi (ph : phi) ->
              let p_args = args_store.(b).(pi) in
              let live = ref 0 in
              Array.iter
                (fun ((_, n) : int * name) -> if n.id >= 0 then incr live)
                p_args;
              if !live = Array.length p_args then
                { ph with p_args; p_edges = pred_edge.(b) }
              else begin
                let pa = Array.make !live p_args.(0) in
                let pe = Array.make !live 0 in
                let j = ref 0 in
                Array.iteri
                  (fun k ((_, n) as a : int * name) ->
                    if n.id >= 0 then begin
                      pa.(!j) <- a;
                      pe.(!j) <- pred_edge.(b).(k);
                      incr j
                    end)
                  p_args;
                { ph with p_args = pa; p_edges = pe }
              end)
            out_phis.(b)
        in
        { phis; instrs = out_instrs.(b); term = out_terms.(b) })
  in

  (* -- Dense site ids ------------------------------------------------ *)
  let site_base = Array.make (nblocks + 1) 0 in
  for b = 0 to nblocks - 1 do
    site_base.(b + 1) <-
      site_base.(b)
      + Array.length blocks.(b).phis
      + Array.length blocks.(b).instrs
      + 1 (* terminator *)
  done;
  let n_sites = site_base.(nblocks) in
  let site_code = Array.make (max 1 n_sites) 0 in
  for b = 0 to nblocks - 1 do
    let base = site_base.(b) in
    let nphis = Array.length blocks.(b).phis in
    let ninstrs = Array.length blocks.(b).instrs in
    for pi = 0 to nphis - 1 do
      site_code.(base + pi) <- pack_site ~tag:site_tag_phi ~block:b ~index:pi
    done;
    for i = 0 to ninstrs - 1 do
      site_code.(base + nphis + i) <-
        pack_site ~tag:site_tag_instr ~block:b ~index:i
    done;
    site_code.(base + nphis + ninstrs) <-
      pack_site ~tag:site_tag_term ~block:b ~index:0
  done;
  let phi_site b pi = site_base.(b) + pi in
  let instr_site b i = site_base.(b) + Array.length blocks.(b).phis + i in
  let term_site b =
    site_base.(b) + Array.length blocks.(b).phis
    + Array.length blocks.(b).instrs
  in

  (* -- Def sites and CSR def-use chains ------------------------------ *)
  let n_names = !next_id in
  (* Same packing as [site_code]; -1 is the entry definition. *)
  let defs = Array.make n_names (-1) in
  (* Two passes over one closure-free traversal: count uses per name, then
     fill.  The second pass advances the offsets in place; shifting them
     back afterwards avoids a scratch cursor array. *)
  let use_offsets = Array.make (n_names + 1) 0 in
  let iter_uses f =
    for b = 0 to nblocks - 1 do
      let blk = blocks.(b) in
      for pi = 0 to Array.length blk.phis - 1 do
        let pa = blk.phis.(pi).p_args in
        for j = 0 to Array.length pa - 1 do
          let _, n = pa.(j) in
          f n (phi_site b pi)
        done
      done;
      for i = 0 to Array.length blk.instrs - 1 do
        let site = instr_site b i in
        (* Operand matches are inlined (not a local [use_operand] helper)
           so the loop allocates no closures. *)
        match blk.instrs.(i) with
        | Assign (_, rhs) -> (
            match rhs with
            | Copy (Oname n) | Unop (_, Oname n) -> f n site
            | Copy (Oconst _) | Unop (_, Oconst _) -> ()
            | Binop (_, x, y) ->
                (match x with Oname n -> f n site | Oconst _ -> ());
                (match y with Oname n -> f n site | Oconst _ -> ()))
        | Kill _ -> ()
        | Call c ->
            for j = 0 to Array.length c.c_args - 1 do
              (match c.c_args.(j).sa_operand with
              | Oname n -> f n site
              | Oconst _ -> ())
            done;
            for j = 0 to Array.length c.c_global_uses - 1 do
              let _, n = c.c_global_uses.(j) in
              f n site
            done
        | Print (Oname n) -> f n site
        | Print (Oconst _) -> ()
      done;
      match blk.term with
      | Cond (c, _, _) -> (
          match c with Oname n -> f n (term_site b) | Oconst _ -> ())
      | Goto _ | Ret -> ()
    done
  in
  iter_uses (fun n _ -> use_offsets.(n.id + 1) <- use_offsets.(n.id + 1) + 1);
  for i = 0 to n_names - 1 do
    use_offsets.(i + 1) <- use_offsets.(i + 1) + use_offsets.(i)
  done;
  let use_sites = Array.make (max 1 use_offsets.(n_names)) 0 in
  iter_uses (fun n site ->
      use_sites.(use_offsets.(n.id)) <- site;
      use_offsets.(n.id) <- use_offsets.(n.id) + 1);
  for i = n_names downto 1 do
    use_offsets.(i) <- use_offsets.(i - 1)
  done;
  use_offsets.(0) <- 0;
  for b = 0 to nblocks - 1 do
    let blk = blocks.(b) in
    for pi = 0 to Array.length blk.phis - 1 do
      defs.(blk.phis.(pi).p_name.id) <-
        pack_site ~tag:site_tag_phi ~block:b ~index:pi
    done;
    for i = 0 to Array.length blk.instrs - 1 do
      let d = pack_site ~tag:site_tag_instr ~block:b ~index:i in
      match blk.instrs.(i) with
      | Assign (n, _) -> defs.(n.id) <- d
      | Kill kills ->
          for j = 0 to Array.length kills - 1 do
            let _, n = kills.(j) in
            defs.(n.id) <- d
          done
      | Call c ->
          for j = 0 to Array.length c.c_defs - 1 do
            let _, n = c.c_defs.(j) in
            defs.(n.id) <- d
          done
      | Print _ -> ()
    done
  done;

  (* -- Var slot tables, flat call list ------------------------------- *)
  let entry_ids = Array.map (fun (_, n) -> n.id) entry_names in
  let exit_names = List.rev !exit_names_acc in
  let exit_ids =
    List.map
      (fun (b, arr) ->
        let tbl = Array.make nvars (-1) in
        Array.iter
          (fun ((v : Ir.var), (n : name)) -> tbl.(vidx v) <- n.id)
          arr;
        (b, tbl))
      exit_names
    |> Array.of_list
  in
  let calls_acc = ref [] in
  let n_calls = ref 0 in
  let n_call_defs = ref 0 in
  for b = nblocks - 1 downto 0 do
    let blk = blocks.(b) in
    for i = Array.length blk.instrs - 1 downto 0 do
      match blk.instrs.(i) with
      | Call c ->
          incr n_calls;
          calls_acc := (b, i, c) :: !calls_acc
      | Assign _ | Kill _ | Print _ -> ()
    done
  done;
  let calls = Array.of_list !calls_acc in
  Array.iter
    (fun (_, _, c) ->
      c.c_def_base <- !n_call_defs;
      n_call_defs := !n_call_defs + Array.length c.c_defs)
    calls;
  {
    name = p.Ir.name;
    formals = p.Ir.formals;
    blocks;
    entry = cfg.Ir.entry;
    preds;
    dom;
    entry_names;
    exit_names;
    n_names;
    defs;
    use_offsets;
    use_sites;
    n_sites;
    site_code;
    n_edges;
    edge_base;
    edge_dst;
    vars;
    var_keys;
    entry_ids;
    exit_ids;
    calls;
    n_call_defs = !n_call_defs;
    n_call_sites = p.Ir.n_call_sites;
    memo = No_memo;
  }

(* ------------------------------------------------------------------ *)
(* Queries and validation                                              *)
(* ------------------------------------------------------------------ *)

(** The variable's dense slot in this procedure's universe, or -1.
    Binary search over the sorted [var_keys] — alloc- and hash-free. *)
let slot_of (p : proc) (v : Ir.var) : int =
  let k = Ir.Var.slot_key v in
  let keys = p.var_keys in
  let lo = ref 0 and hi = ref (Array.length keys - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let km = keys.(mid) in
    if km = k then begin
      res := mid;
      lo := !hi + 1
    end
    else if km < k then lo := mid + 1
    else hi := mid - 1
  done;
  !res

(** The entry (version-0) name of a variable, if it exists in the proc. *)
let entry_name (p : proc) (v : Ir.var) : name option =
  let s = slot_of p v in
  if s < 0 then None else Some (snd p.entry_names.(s))

(** Decode a dense site id back to its structured form. *)
let decode_site (p : proc) (s : int) : use_site =
  let code = p.site_code.(s) in
  let b = (code lsr 2) land 0xffffffff in
  let idx = code lsr 34 in
  match code land 3 with
  | 0 -> Uphi (b, idx)
  | 1 -> Uinstr (b, idx)
  | _ -> Uterm b

(** The use sites of name [id], decoded from the CSR row (traversal
    order).  Convenience for tests and reference implementations; the SCC
    kernel walks [use_offsets]/[use_sites] directly. *)
let uses_of (p : proc) (id : int) : use_site list =
  let lo = p.use_offsets.(id) and hi = p.use_offsets.(id + 1) in
  List.init (hi - lo) (fun k -> decode_site p p.use_sites.(lo + k))

(** All call instructions, as [(block, instr index, call)] in block order. *)
let call_sites (p : proc) : (int * int * call) list = Array.to_list p.calls

(** Structural invariants, checked by the test-suite:
    - every name has exactly one definition site;
    - each phi has exactly one argument per predecessor, and that
      argument's block is the predecessor its edge comes from;
    - every use is dominated by its definition: for an instruction or
      terminator use (and a return's exit names, read at the [Ret]), the
      def block dominates the use block, and within one block the def
      comes first; for a phi argument, the def block dominates the
      matching predecessor.  This is the property phi placement — pruned
      or not — must keep. *)
let validate (p : proc) : (unit, string) result =
  let exception Invalid of string in
  let fail fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt in
  let nblocks = Array.length p.blocks in
  (* Dominator-tree preorder intervals: [a] dominates [b] iff
     [pre a <= pre b <= last a].  The preorder walk keeps an explicit
     stack; [last] then folds up the tree in reverse preorder. *)
  let children = p.dom.Dominance.children in
  let pre = Array.make nblocks (-1) and last = Array.make nblocks (-1) in
  let order = Array.make nblocks 0 in
  let n_reached = ref 0 in
  let rec walk = function
    | [] -> ()
    | b :: stack ->
        pre.(b) <- !n_reached;
        order.(!n_reached) <- b;
        incr n_reached;
        walk (List.rev_append children.(b) stack)
  in
  walk [ p.entry ];
  for k = !n_reached - 1 downto 0 do
    let b = order.(k) in
    last.(b) <- List.fold_left (fun m c -> max m last.(c)) pre.(b) children.(b)
  done;
  let dominates a b = pre.(a) <= pre.(b) && pre.(b) <= last.(a) in
  (* Def site of each name as (block, position): the entry definitions sit
     before the entry block's phis (-2), phis at -1, instruction i at i. *)
  let def_block = Array.make p.n_names (-1) in
  let def_pos = Array.make p.n_names 0 in
  let def b pos n =
    if n.id < 0 || n.id >= p.n_names then fail "name %a has no id" pp_name n;
    if def_block.(n.id) >= 0 then fail "name %a defined twice" pp_name n;
    def_block.(n.id) <- b;
    def_pos.(n.id) <- pos
  in
  let use b pos n =
    if n.id < 0 || n.id >= p.n_names || def_block.(n.id) < 0 then
      fail "name %a used at B%d but never defined" pp_name n b;
    let db = def_block.(n.id) in
    let ok =
      if db = b then def_pos.(n.id) < pos
      else pre.(b) < 0 (* an unreachable use is vacuous *) || dominates db b
    in
    if not ok then
      fail "def of %a in B%d does not dominate its use in B%d" pp_name n db b
  in
  try
    Array.iter (fun (_, n) -> def p.entry (-2) n) p.entry_names;
    Array.iteri
      (fun b (blk : block) ->
        Array.iter (fun (ph : phi) -> def b (-1) ph.p_name) blk.phis;
        Array.iteri
          (fun i -> function
            | Assign (n, _) -> def b i n
            | Kill kills -> Array.iter (fun (_, n) -> def b i n) kills
            | Call c -> Array.iter (fun (_, n) -> def b i n) c.c_defs
            | Print _ -> ())
          blk.instrs)
      p.blocks;
    let use_op b pos = function Oname n -> use b pos n | Oconst _ -> () in
    Array.iteri
      (fun b (blk : block) ->
        let preds = Array.of_list p.preds.(b) in
        Array.iter
          (fun (ph : phi) ->
            if Array.length ph.p_args <> Array.length preds then
              fail "phi %a at B%d has %d args for %d preds" pp_name ph.p_name
                b (Array.length ph.p_args) (Array.length preds);
            Array.iteri
              (fun k (pred, n) ->
                if pred <> preds.(k) then
                  fail "phi %a at B%d: argument %d comes from B%d, not B%d"
                    pp_name ph.p_name b k pred preds.(k);
                use pred max_int n)
              ph.p_args)
          blk.phis;
        Array.iteri
          (fun i -> function
            | Assign (_, (Copy o | Unop (_, o))) | Print o -> use_op b i o
            | Assign (_, Binop (_, x, y)) ->
                use_op b i x;
                use_op b i y
            | Kill _ -> ()
            | Call c ->
                Array.iter (fun a -> use_op b i a.sa_operand) c.c_args;
                Array.iter (fun (_, n) -> use b i n) c.c_global_uses)
          blk.instrs;
        let term_pos = Array.length blk.instrs in
        match blk.term with
        | Cond (c, _, _) -> use_op b term_pos c
        | Goto _ | Ret -> ())
      p.blocks;
    List.iter
      (fun (b, names) ->
        Array.iter (fun (_, n) -> use b (Array.length p.blocks.(b).instrs) n) names)
      p.exit_names;
    Ok ()
  with Invalid msg -> Error msg

let pp_proc ppf (p : proc) =
  Fmt.pf ppf "ssa proc %s:@\n" p.name;
  Array.iteri
    (fun b (blk : block) ->
      Fmt.pf ppf "B%d:@\n" b;
      Array.iter
        (fun (ph : phi) ->
          Fmt.pf ppf "  %a = phi(%a)@\n" pp_name ph.p_name
            Fmt.(
              array ~sep:(any ", ") (fun ppf (pred, n) ->
                  pf ppf "B%d:%a" pred pp_name n))
            ph.p_args)
        blk.phis;
      Array.iter
        (fun ins ->
          match ins with
          | Assign (n, rhs) -> Fmt.pf ppf "  %a = %a@\n" pp_name n pp_rhs rhs
          | Kill kills ->
              Fmt.pf ppf "  kill(%a)@\n"
                Fmt.(array ~sep:(any ", ") (fun ppf (_, n) -> pp_name ppf n))
                kills
          | Call c ->
              Fmt.pf ppf "  call[%d] %s(%a) defs(%a)@\n" c.c_cs_id c.c_callee
                Fmt.(
                  array ~sep:(any ", ") (fun ppf a -> pp_operand ppf a.sa_operand))
                c.c_args
                Fmt.(
                  array ~sep:(any ", ") (fun ppf (_, n) -> pp_name ppf n))
                c.c_defs
          | Print o -> Fmt.pf ppf "  print %a@\n" pp_operand o)
        blk.instrs;
      match blk.term with
      | Goto t -> Fmt.pf ppf "  goto B%d@\n" t
      | Cond (c, t, f) ->
          Fmt.pf ppf "  if %a then B%d else B%d@\n" pp_operand c t f
      | Ret -> Fmt.pf ppf "  ret@\n")
    p.blocks
