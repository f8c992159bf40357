(** Flow-sensitive interprocedural constant propagation (paper Figure 4).

    One forward topological traversal of the PCG, interleaving the
    Wegman–Zadeck SCC intraprocedural analysis with interprocedural
    propagation:

    + visit procedures in reverse postorder from [main], so every caller
      reachable over forward edges is processed before its callees;
    + on visiting [p], meet — over all already-processed, {e executable}
      call sites invoking [p] — the recorded lattice value of each argument
      and of each global in [p]'s REF closure; call sites reached over
      {b back edges} have not been processed yet, so their contribution is
      taken from the {b flow-insensitive} solution instead (computed
      beforehand, and only when the PCG actually has cycles);
    + run SCC on [p] {e once}, with the met values as the entry environment;
    + record at each executable call site of [p] the lattice value of every
      argument and every relevant global, for its callees' later meets.

    Thus each procedure receives exactly one flow-sensitive analysis —
    recursion included — which is the paper's efficiency claim; when the
    PCG is acyclic the result coincides with the full iterative
    flow-sensitive solution (checked against {!Reference} in the tests),
    and as the back-edge ratio grows the solution degrades gracefully
    toward the flow-insensitive one (the BACKEDGE experiment).

    {2 Parallel execution}

    The traversal is a dependency {e wavefront}: a procedure is ready as
    soon as all of its forward-edge callers have been analysed,
    independently of its siblings, so ready procedures run concurrently on
    [jobs] domains ({!Fsicp_par.Par.wavefront}).  Procedure [p]'s entry
    meet is {e pulled} at dispatch time from the call records its forward
    callers already produced — in canonical in-edge order, so the result is
    independent of completion order — rather than pushed by the callers,
    which keeps the per-call-site hot path free of locks: the scheduler's
    ready-count bookkeeping is the only synchronisation point.  Back-edge
    contributions come from the flow-insensitive seed, which is complete
    before the wavefront starts, so no cross-domain race exists.
    [jobs = 1] processes the nodes sequentially in exactly the forward
    order the original implementation used; any [jobs] yields a
    bit-identical {!Solution.t} (verified by the test suite). *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_cfg
open Fsicp_ssa
open Fsicp_callgraph
open Fsicp_ipa
open Fsicp_scc
open Fsicp_par

let method_name = "flow-sensitive"

module Trace = Fsicp_trace.Trace
module P = Lattice.P

(* Incremental re-solve volume: procedures re-driven through the wavefront
   vs procedures whose previous outputs were reused verbatim.  Both are
   deterministic for a given edit sequence. *)
let c_resolve_dirty = Trace.counter "fs.resolve.dirty"
let c_resolve_reused = Trace.counter "fs.resolve.reused"

(* Rows (entries and call-record rows) an incremental re-solve wrote into
   its patched solution: two per re-driven procedure, none per reused
   one. *)
let c_patch_rows = Trace.counter "fs.patch.rows"

(* -- Shard regions ------------------------------------------------------ *)

(* A cut at position [i] splits the dense id range into [0, i) / [i, n).
   In reverse postorder every non-back edge increases ids, so any path
   from a higher id back to a lower one must traverse a back edge (c, k)
   with [k <= c]; an SCC spanning the cut would need such a path crossing
   it, i.e. a back edge with [k < i <= c].  Forbidding cuts inside every
   back-edge interval [k+1, c] therefore keeps each SCC of the PCG
   condensation whole within one region. *)
let shard_regions (pcg : Callgraph.t) ~parts : int array =
  let n = Callgraph.n_procs pcg in
  let parts = max 1 (min parts (max 1 n)) in
  if n = 0 then [| 0; 0 |]
  else begin
    (* Difference-array coverage of the forbidden intervals. *)
    let diff = Array.make (n + 2) 0 in
    List.iter
      (fun (e : Callgraph.edge) ->
        if e.Callgraph.back then begin
          let k = (e.Callgraph.callee :> int)
          and c = (e.Callgraph.caller :> int) in
          (* Self-recursion (k = c) forbids nothing: the interval is empty. *)
          if k < c then begin
            diff.(k + 1) <- diff.(k + 1) + 1;
            diff.(c + 1) <- diff.(c + 1) - 1
          end
        end)
      pcg.Callgraph.edges;
    let legal = ref [] and cov = ref 0 in
    for i = 1 to n - 1 do
      cov := !cov + diff.(i);
      if !cov = 0 then legal := i :: !legal
    done;
    let legal = Array.of_list (List.rev !legal) in
    (* For each ideal boundary, take the largest legal cut not past it;
       strictly increasing cuts, so heavily cyclic graphs just yield fewer
       (larger) regions. *)
    let cuts = ref [] and last = ref 0 and li = ref 0 in
    for p = 1 to parts - 1 do
      let target = p * n / parts in
      while !li < Array.length legal && legal.(!li) <= target do
        incr li
      done;
      if !li > 0 && legal.(!li - 1) > !last then begin
        cuts := legal.(!li - 1) :: !cuts;
        last := legal.(!li - 1)
      end
    done;
    Array.of_list ((0 :: List.rev (n :: !cuts)) |> List.sort_uniq compare)
  end

(* Region [r] (ids [bounds.(r), bounds.(r+1))) belongs to domain
   [r mod jobs]: more regions than domains interleaves whole regions
   round-robin, which balances corpora whose hard work clusters in one
   id range without ever splitting a region. *)
let owners_of_regions (bounds : int array) ~jobs ~n : int array =
  let owners = Array.make n 0 in
  for r = 0 to Array.length bounds - 2 do
    for i = bounds.(r) to bounds.(r + 1) - 1 do
      owners.(i) <- r mod jobs
    done
  done;
  owners

(** The SCC kernel keys call effects by callee name: answer a
    [(callee, v)] query by meeting the per-call oracle [f] over the calls
    to that callee among [calls] — conservative when several calls to the
    same callee define the same variable, and rare — with ⊥ when nothing
    is known.  The calls are indexed by callee once, so each query folds
    only that callee's sites. *)
let call_def_by_callee (calls : (int * int * Ssa.call) list)
    (f : Ssa.call -> Ir.var -> int) : callee:string -> Ir.var -> int =
  let by_callee : (string, Ssa.call list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (_, _, (c : Ssa.call)) ->
      Hashtbl.replace by_callee c.Ssa.c_callee
        (c
        :: Option.value (Hashtbl.find_opt by_callee c.Ssa.c_callee) ~default:[]
        ))
    (List.rev calls);
  fun ~callee v ->
    let r =
      List.fold_left
        (fun acc (c : Ssa.call) -> P.meet acc (f c v))
        P.top
        (Option.value (Hashtbl.find_opt by_callee callee) ~default:[])
    in
    if r = P.top then P.bot else r

(** [solve ?jobs ?fi ?call_def_value ctx] computes the flow-sensitive
    solution.

    [jobs] is the number of worker domains for the wavefront traversal and
    the SSA pre-build (default {!Fsicp_par.Par.default_jobs}); the solution
    is identical for every value.

    [fi] overrides the flow-insensitive solution used for back edges
    (computed on demand when the PCG has cycles, matching the paper:
    "performing a flow-insensitive analysis prior to the flow-sensitive
    analysis, only if there are cycles in the PCG").

    [call_def_value] refines the post-call value of call-defined variables;
    the return-constants extension ({!Return_consts}) passes the summaries
    of its reverse traversal here.

    [prev]/[dirty] select the incremental path (see {!resolve}): the
    solution is a patch of [prev].  Only the procedures in [dirty] — a
    forward-edge-closed cone in ascending id order — are re-driven through
    the wavefront, and only their rows are written, into copies of
    [prev]'s dense tables; every other procedure's entry, call-record row
    and SCC result is [prev]'s, shared.  A from-scratch solve is the same
    code patching empty tables with every procedure dirty.  Nothing here
    costs O(program) beyond those table copies. *)
let solve_body ?jobs ?fi ?prev ?(dirty : Prog.Proc.id array option)
    ?(call_def_value :
       (caller:string -> Ssa.call -> Ir.var -> int) option)
    (ctx : Context.t) : Solution.t =
  let pcg = ctx.Context.pcg in
  let nodes = pcg.Callgraph.nodes in
  let n = Array.length nodes in
  let jobs =
    max 1 (min (match jobs with Some j -> j | None -> Par.default_jobs ()) n)
  in
  let fi =
    match fi with
    | Some s -> Some s
    | None -> if Callgraph.has_cycles pcg then Some (Fi_icp.solve ctx) else None
  in

  (* The globals of [proc]'s REF closure, as interned ids.  GREF of a
     procedure is exactly what [call_global_refs] reports for a call to it,
     and Modref precomputes that list per procedure. *)
  let gref_globals proc =
    Modref.call_global_refs ctx.Context.modref ~callee:proc
  in

  (* The procedures to drive: every one from scratch, else the dirty
     cone — forward-edge closed, in ascending id (= forward topological)
     order. *)
  let order =
    match dirty with
    | None -> Array.init n Fun.id
    | Some d -> Array.map (fun (p : Prog.Proc.id) -> (p :> int)) d
  in
  let patching = Option.is_some prev in
  (* Pre-build SSA for every procedure (embarrassingly parallel, and the
     bulk of the flow-sensitive setup time); afterwards [Context.ssa] is a
     read-only cache hit from any domain.  Streaming contexts skip this on
     purpose: each procedure's SSA is built inside [process] when its
     wavefront turn comes and released right after, so the peak resident
     set follows the frontier instead of the program. *)
  let streaming = Context.is_streaming ctx in
  if jobs > 1 && not streaming then Context.build_ssa ~jobs ctx;

  (* Block-data seeds, pre-encoded to packed words and keyed by raw int id:
     the entry-environment lookups below never box. *)
  let blockdata = Context.blockdata_env ctx in
  let blockdata_tbl : (int, int) Hashtbl.t =
    Hashtbl.create (List.length blockdata)
  in
  List.iter
    (fun (g, v) ->
      Hashtbl.replace blockdata_tbl (Prog.Var.to_int g) (P.of_t v))
    blockdata;
  let main = ctx.Context.prog.Ast.main in

  (* The solution's dense tables: copies of [prev]'s — so every clean
     procedure keeps its previous entry, call-record row and SCC result
     without being touched — or empty ones from scratch.  A clean
     procedure's forward callers are all clean (the cone is forward-closed)
     and its back-edge contributions are unchanged (procedures downstream
     of a changed flow-insensitive record are seeded into the cone), so its
     previous rows are exactly what a from-scratch solve would recompute.
     [process] replaces the rows of the procedures it drives; each slot is
     written only by the domain that processes its procedure and read by
     its dependents after the scheduler's happens-before edge. *)
  let db = pcg.Callgraph.db in
  let entries, rows, results =
    match prev with
    | Some (prev : Solution.t) ->
        ( Prog.Proc.Tbl.copy prev.Solution.entries,
          Prog.Proc.Tbl.copy prev.Solution.call_index,
          Prog.Proc.Tbl.copy prev.Solution.scc_results )
    | None ->
        ( Prog.tbl db Solution.empty_entry,
          Prog.tbl db [||],
          Prog.tbl db None )
  in

  let process i =
    let pid = nodes.(i) in
    let proc = Callgraph.proc_name pcg pid in
    (* Detached: the wavefront assigns the procedure to whichever domain is
       free, so the span must not inherit that domain's stack in the
       canonical trace.  The procedure name keys the canonical order. *)
    Trace.span ~detach:true
      ~args:(fun () -> [ ("proc", proc) ])
      "fs:proc"
    @@ fun () ->
    let s = Summary.find ctx.Context.summaries proc in
    let nf = List.length s.Summary.ps_formals in
    let ins = Callgraph.in_edges pcg pid in
    let formals = Array.make nf P.top in
    (* The REF-closure globals as a sorted id array with a parallel packed
       value array: the entry meets and the SCC entry environment binary-
       search it instead of hashing, and a meet is one int store. *)
    let gids =
      Array.of_list (List.map (fun (g : Ir.var) -> g.Ir.vid) (gref_globals proc))
    in
    Array.sort Prog.Var.compare gids;
    let gvals = Array.make (Array.length gids) P.top in
    let gfind (g : int) =
      let lo = ref 0 and hi = ref (Array.length gids - 1) in
      let found = ref (-1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) lsr 1 in
        let gm = Prog.Var.to_int gids.(mid) in
        if gm = g then begin
          found := mid;
          lo := !hi + 1
        end
        else if gm < g then lo := mid + 1
        else hi := mid - 1
      done;
      !found
    in
    let meet_formal j w = if j < nf then formals.(j) <- P.meet formals.(j) w in
    let meet_global (g : int) w =
      let k = gfind g in
      (* missing: not in the REF closure — its entry value is never used *)
      if k >= 0 then gvals.(k) <- P.meet gvals.(k) w
    in
    let contribute (cr : Solution.callsite_record) =
      Array.iteri (fun j v -> meet_formal j (P.of_t v)) cr.Solution.cr_args;
      List.iter
        (fun (g, v) -> meet_global (Prog.Var.to_int g) (P.of_t v))
        cr.Solution.cr_globals
    in
    (* Back edges contribute the flow-insensitive per-call-site statuses. *)
    (match fi with
    | None -> ()
    | Some fi ->
        Array.iter
          (fun (e : Callgraph.edge) ->
            if e.Callgraph.back then
              match
                Solution.find_call_record fi ~caller:e.Callgraph.caller
                  ~cs_index:e.Callgraph.cs_index
              with
              | None -> ()
              | Some cr -> contribute cr)
          ins);
    (* Entry environment of [main]: block data constants; everything else
       unknown.  (Any call edge into [main] is necessarily a back edge, so
       this replacement is main's whole global story bar the FI seed, which
       it deliberately overrides — as the sequential traversal always did.) *)
    if String.equal proc main then
      for k = 0 to Array.length gids - 1 do
        gvals.(k) <-
          (match
             Hashtbl.find_opt blockdata_tbl (Prog.Var.to_int gids.(k))
           with
          | Some w -> w
          | None -> P.bot)
      done;
    (* Forward edges: every forward caller has been processed (the
       scheduler guarantees it), so pull its recorded executable call-site
       values, in canonical in-edge order. *)
    Array.iter
      (fun (e : Callgraph.edge) ->
        if not e.Callgraph.back then
          match
            (Prog.Proc.Tbl.get rows e.Callgraph.caller).(e.Callgraph.cs_index)
          with
          | Some cr when cr.Solution.cr_executable -> contribute cr
          | Some _ | None -> ())
      ins;
    (* Top after all contributions = no executable call reaches the
       procedure; treat as unknown rather than claiming dead-code
       constants.  Finalize in place: [formals]/[gvals] double as the
       entry lookup the SCC entry environment reads below. *)
    for j = 0 to nf - 1 do
      if formals.(j) = P.top then formals.(j) <- P.bot
    done;
    for k = 0 to Array.length gvals - 1 do
      if gvals.(k) = P.top then gvals.(k) <- P.bot
    done;
    (* Decode to the boxed entry only at the Solution boundary; [gids] is
       sorted, so [pe_globals] comes out in canonical id order. *)
    let pe_formals = Array.map P.to_t formals in
    let pe_globals =
      let acc = ref [] in
      for k = Array.length gids - 1 downto 0 do
        acc := (gids.(k), P.to_t gvals.(k)) :: !acc
      done;
      !acc
    in
    Prog.Proc.Tbl.set entries pid { Solution.pe_formals; pe_globals };
    (* One flow-sensitive intraprocedural analysis of [proc]. *)
    let is_main = String.equal proc main in
    let entry_env (v : Ir.var) : int =
      match v.Ir.vkind with
      | Ir.Formal i -> if i < nf then formals.(i) else P.bot
      | Ir.Global -> (
          let k = gfind (Prog.Var.to_int v.Ir.vid) in
          if k >= 0 then gvals.(k)
          else if
            (* Not in the REF closure but still versioned (e.g. only in
               the MOD closure of some callee): unknown at entry unless
               this is [main] and block data initialises it. *)
            is_main
          then
            match Hashtbl.find_opt blockdata_tbl (Prog.Var.to_int v.Ir.vid) with
            | Some w -> w
            | None -> P.bot
          else P.bot)
      | Ir.Local | Ir.Temp -> P.bot
    in
    let ssa = Context.ssa_at ctx pid in
    let call_sites = Ssa.call_sites ssa in
    let cdv =
      match call_def_value with
      | None -> Scc.default_config.Scc.call_def_value
      | Some f -> call_def_by_callee call_sites (f ~caller:proc)
    in
    let config = { Scc.entry_env; call_def_value = cdv } in
    let res = Scc.run ~config ssa in
    Prog.Proc.Tbl.set results pid (Some res);
    (* Record call-site values for the callees' later meets. *)
    let out = Callgraph.out_edges pcg pid in
    let row = Array.make (Array.length out) None in
    List.iter
      (fun (b, _, (c : Ssa.call)) ->
        let executable = res.Scc.block_executable.(b) in
        let cr_args =
          Array.mapi
            (fun j _ ->
              if executable then
                P.to_t (Context.censor_w ctx (Scc.arg_value_w res c j))
              else Lattice.Top)
            c.Ssa.c_args
        in
        let cr_globals =
          Array.to_list c.Ssa.c_global_uses
          |> List.map (fun ((g : Ir.var), (n : Ssa.name)) ->
                 ( g.Ir.vid,
                   if executable then
                     P.to_t
                       (Context.censor_w ctx res.Scc.values.(n.Ssa.id))
                   else Lattice.Top ))
        in
        let cr =
          {
            Solution.cr_caller = pid;
            cr_cs_index = c.Ssa.c_cs_id;
            cr_callee = out.(c.Ssa.c_cs_id).Callgraph.callee;
            cr_executable = executable;
            cr_args;
            cr_globals;
          }
        in
        row.(c.Ssa.c_cs_id) <- Some cr)
      call_sites;
    Prog.Proc.Tbl.set rows pid row;
    if patching then Trace.add c_patch_rows 2;
    (* Streaming solves must not retain each procedure's SSA through the
       retained [Scc.result]: once the records are extracted the result
       keeps every per-name array (the canonical digest reads those) but
       its SSA field is retired to [None] — any later accessor that needs
       the structure raises instead of reading stale state. *)
    if streaming then begin
      Prog.Proc.Tbl.set results pid (Some { res with Scc.proc = None });
      Context.retire ctx pid
    end
  in

  (* Wavefront shape, needed only to run in parallel (sequentially the
     cone is swept in order): procedure [i] depends on the distinct cone
     members that call it over forward (non-back) edges — a clean caller's
     records are already in [rows], and completion must never enqueue a
     clean node.  Back edges contribute the FI seed instead and impose no
     ordering.  The forward-edge graph is acyclic and consistent with
     reverse postorder by construction, so ids double as wavefront slots. *)
  let shape () =
    let in_cone =
      match dirty with
      | None -> fun _ -> true
      | Some _ ->
          let m = Array.make n false in
          Array.iter (fun i -> m.(i) <- true) order;
          fun i -> m.(i)
    in
    let deps = Array.make n [] and dependents = Array.make n [] in
    Array.iter
      (fun i ->
        let callers =
          Array.fold_left
            (fun acc (e : Callgraph.edge) ->
              let c = (e.Callgraph.caller :> int) in
              if e.Callgraph.back || not (in_cone c) then acc else c :: acc)
            [] (Callgraph.in_edges pcg nodes.(i))
          |> List.sort_uniq compare
        in
        deps.(i) <- callers;
        List.iter (fun c -> dependents.(c) <- i :: dependents.(c)) callers)
      order;
    Array.iter (fun i -> dependents.(i) <- List.rev dependents.(i)) order;
    (deps, dependents)
  in
  let deps, dependents = if jobs <= 1 then ([||], [||]) else shape () in
  (match dirty with
  | None ->
      (* From-scratch solves shard the frontier: contiguous SCC-whole id
         regions, ~4 per domain, each domain owning its regions' nodes on
         a private stack.  Every output lands in its procedure's own table
         slot, so the solution is independent of the sharding: this is
         purely a scheduling change (verified by the digest-equality
         tests). *)
      let owners =
        if jobs <= 1 then [||]
        else owners_of_regions (shard_regions pcg ~parts:(4 * jobs)) ~jobs ~n
      in
      Par.wavefront_sharded ~jobs ~owners ~order ~deps ~dependents process
  | Some _ -> Par.wavefront ~jobs ~order ~deps ~dependents process);
  {
    Solution.method_name;
    db;
    entries;
    call_index = rows;
    scc_runs = n;
    scc_results = results;
  }

let solve ?jobs ?fi
    ?(call_def_value :
       (caller:string -> Ssa.call -> Ir.var -> int) option)
    (ctx : Context.t) : Solution.t =
  Trace.next_epoch ();
  Trace.span "fs:solve" (fun () -> solve_body ?jobs ?fi ?call_def_value ctx)

(** Incremental re-solve after a shape-preserving procedure edit.

    [dirty] is the downstream wavefront cone ({!Callgraph.cone}) of the
    edited procedures plus every callee of a back edge whose
    flow-insensitive record changed; [fi] is the {e fresh} flow-insensitive
    solution of the edited program; [prev] is the previous flow-sensitive
    solution.  Only the cone is re-driven through the wavefront; everything
    outside it is copied from [prev].  The result is identical — including
    [scc_runs], which counts one flow-sensitive analysis per procedure, the
    solution-shape invariant — to a from-scratch {!solve} at any [jobs];
    the actual kernel work shows up in the trace counters instead
    (["fs.resolve.dirty"], ["fs.resolve.reused"], ["scc.memo_hits"]). *)
let resolve ?jobs ~(fi : Solution.t) ~(prev : Solution.t)
    ~(dirty : Prog.Proc.id array) (ctx : Context.t) : Solution.t =
  Trace.next_epoch ();
  Trace.span "fs:resolve" @@ fun () ->
  let n = Array.length ctx.Context.pcg.Callgraph.nodes in
  Trace.add c_resolve_dirty (Array.length dirty);
  Trace.add c_resolve_reused (n - Array.length dirty);
  (* Small dirty regions run sequentially regardless of the requested
     [jobs]: spawning a worker pool costs on the order of a millisecond,
     more than re-solving a handful of procedures outright.  Results are
     identical at every jobs count by construction, so the clamp is purely
     a latency decision. *)
  let jobs = if Array.length dirty < 24 then Some 1 else jobs in
  solve_body ?jobs ~fi ~prev ~dirty ctx
