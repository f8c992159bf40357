(* The traced run's layers: each calls a layer's public function inside
   a [Trace.span], times it, and reports its allocation.  analyze and
   serve have a layer-by-layer replica here, which must print exactly
   what the real path ([Command]) prints; [Run] checks that.  methods and
   verify run the real path itself, split by [as_layer]. *)

open Fsicp_lang
open Fsicp_prog
open Fsicp_cfg
open Fsicp_ipa
open Fsicp_callgraph
open Fsicp_core
module Trace = Fsicp_trace.Trace
module Json = Fsicp_serve.Json
module Protocol = Fsicp_serve.Protocol

type stat = {
  mutable seconds : float;
  mutable minor_words : float;
  mutable major_words : float;
}

(** Per-layer totals of one replica pass, and the calibration factor
    that turns its wall seconds into reference seconds ([Calib]). *)
type t = { stats : (string, stat) Hashtbl.t; mutable factor : float }

let create () : t = { stats = Hashtbl.create 32; factor = 1. }

let stat (t : t) name =
  match Hashtbl.find_opt t.stats name with
  | Some s -> s
  | None ->
      let s = { seconds = 0.; minor_words = 0.; major_words = 0. } in
      Hashtbl.add t.stats name s;
      s

(** Reference seconds spent in a layer. *)
let seconds t name = (stat t name).seconds *. t.factor

(* Allocation counts the calling domain only: exact for the jobs=1
   replicas the [*_mw] metrics come from.  [Gc.minor_words] is read
   directly because [Gc.quick_stat] only advances it at each minor
   collection. *)
let layer (t : t) name f =
  let s = stat t name in
  let m0 = Gc.minor_words () and j0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = Clock.now () in
  let r = Trace.span name f in
  let dt = Clock.now () -. t0 in
  let m1 = Gc.minor_words () and j1 = (Gc.quick_stat ()).Gc.major_words in
  s.seconds <- s.seconds +. dt;
  s.minor_words <- s.minor_words +. (m1 -. m0);
  s.major_words <- s.major_words +. (j1 -. j0);
  r

(** Wall seconds spent in all layers. *)
let total t = Hashtbl.fold (fun _ s acc -> acc +. s.seconds) t.stats 0.

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

type analyzed = {
  out : string;  (** must equal [Command.analyze]'s output *)
  ctx : Context.t;
  lowered : Ir.proc Prog.Proc.Tbl.t;
}

(** [Context.create], [Fs_icp.solve] and the report, one layer at a time.
    Lowering runs before aliasing because the alias-kill tables need the
    lowered bodies; both orders give the same context. *)
let analyze t ~jobs (label, src) : analyzed =
  let layer name f = layer t name f in
  let prog = layer "lang.parse" (fun () -> Parser.program_of_string src) in
  layer "lang.sema" (fun () ->
      match Sema.check prog with
      | Ok () -> ()
      | Error es -> raise (Command.Bad_input (label ^ ": " ^ Sema.errors_to_string es)));
  let pcg = layer "callgraph.build" (fun () -> Callgraph.build prog) in
  let summaries = layer "ipa.summary" (fun () -> Summary.collect prog) in
  let lowered = layer "cfg.lower" (fun () -> Context.lower_all ~jobs prog pcg) in
  let aliases, kills =
    layer "ipa.alias" (fun () ->
        let aliases = Alias.compute summaries pcg in
        (aliases, Context.compute_alias_kills aliases summaries pcg lowered))
  in
  let modref =
    layer "ipa.modref" (fun () -> Modref.compute summaries aliases pcg)
  in
  let db = pcg.Callgraph.db in
  let ctx =
    {
      Context.prog;
      pcg;
      summaries;
      aliases;
      modref;
      floats = true;
      lowered = Prog.Proc.Tbl.map Option.some lowered;
      alias_kills = Prog.Proc.Tbl.map Option.some kills;
      ssa_cache = Prog.tbl db None;
      epochs = Prog.tbl db 0;
      edit_epoch = 0;
      stream = None;
    }
  in
  (* SSA construction computes dominance itself; this separate pass
     measures the dominator tree and frontiers on their own. *)
  layer "cfg.dominance" (fun () ->
      Prog.Proc.Tbl.iteri
        (fun _ (p : Ir.proc) ->
          ignore (Dominance.frontiers p.Ir.cfg (Dominance.compute p.Ir.cfg)))
        lowered);
  layer "ssa.build" (fun () -> Context.build_ssa ~jobs ctx);
  (* The same solver calls as the real path: its second FS solve is the
     warm one the SCC memo answers. *)
  let fs = layer "core.fs" (fun () -> Fs_icp.solve ~jobs ctx) in
  let report = layer "core.report" (fun () -> Fmt.str "%a" Solution.pp fs) in
  let fi = layer "core.fi" (fun () -> Fi_icp.solve ctx) in
  let fs = layer "core.fs" (fun () -> Fs_icp.solve ~jobs ctx) in
  let line =
    layer "core.report" (fun () ->
        Command.candidates_line (Metrics.candidates ctx ~fi ~fs ~name:label))
  in
  { out = report ^ line; ctx; lowered }

(** Block, φ and SSA-name counts of an analysed context. *)
let ssa_counts (a : analyzed) =
  let blocks = ref 0 and phis = ref 0 and names = ref 0 in
  Array.iter
    (fun pid ->
      let ir = Prog.Proc.Tbl.get a.lowered pid in
      blocks := !blocks + Array.length ir.Ir.cfg.Ir.blocks;
      let p = Context.ssa_at a.ctx pid in
      names := !names + p.Fsicp_ssa.Ssa.n_names;
      Array.iter
        (fun (b : Fsicp_ssa.Ssa.block) ->
          phis := !phis + Array.length b.Fsicp_ssa.Ssa.phis)
        p.Fsicp_ssa.Ssa.blocks)
    a.ctx.Context.pcg.Callgraph.nodes;
  (!blocks, !phis, !names)

(** Figure 2 step 6, which [fsicp pipeline] runs and [analyze] does not. *)
let use t (a : analyzed) =
  layer t "ipa.use" (fun () ->
      ignore
        (Use.compute a.lowered a.ctx.Context.modref a.ctx.Context.pcg))

(* ------------------------------------------------------------------ *)
(* methods and verify                                                  *)
(* ------------------------------------------------------------------ *)

(* [Command.methods] and [Command.verify] run their own steps in layers
   when given this. *)
let as_layer t = { Command.run = (fun name f -> layer t name f) }

(** Procedures of [trans] with no structurally equal procedure of the
    same name in [orig]. *)
let modified (orig : Ast.program) (trans : Ast.program) =
  List.length
    (List.filter
       (fun (p : Ast.proc) ->
         match Ast.find_proc orig p.Ast.pname with
         | Some q -> not (Ast.equal_proc p q)
         | None -> true)
       trans.Ast.procs)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

type session = {
  responses : string list;  (** query responses, in order *)
  final : string;  (** the engine's printed solution afterwards *)
  edits : int;
  incremental : int;
  dirty_share : float;  (** summed over incremental edits *)
}

(** The serve path split into decode, dispatch and encode for queries,
    and [Engine.edit_proc] called directly for edits. *)
let session t (prog : Ast.program) (reqs : Traffic.request list) : session =
  let layer name f = layer t name f in
  let engine = layer "engine.create" (fun () -> Engine.create ~jobs:1 prog) in
  let st = Protocol.make_state ~jobs:1 ~version:Command.version () in
  st.Protocol.engine <- Some engine;
  let edits = ref 0 and incremental = ref 0 and share = ref 0. in
  let responses =
    List.filter_map
      (fun (r : Traffic.request) ->
        let req =
          match layer "serve.decode" (fun () -> Json.of_string r.Traffic.json) with
          | Ok req -> req
          | Error m -> raise (Command.Bad_input m)
        in
        match r.Traffic.kind with
        | Traffic.Entry | Traffic.Call_site ->
            let resp = layer "serve.handle" (fun () -> Protocol.handle st req) in
            Some (layer "serve.encode" (fun () -> Json.to_string resp))
        | Traffic.Edit ->
            let source = Option.get (Json.str_member "source" req) in
            let edit = layer "serve.parse" (fun () -> Parser.program_of_string source) in
            List.iter
              (fun p ->
                incr edits;
                match layer "engine.edit" (fun () -> Engine.edit_proc ~jobs:1 engine p) with
                | Engine.Incremental { dirty; total } ->
                    incr incremental;
                    share := !share +. (float dirty /. float total)
                | Engine.Rebuilt _ -> ())
              edit.Ast.procs;
            None)
      reqs
  in
  {
    responses;
    final = Fmt.str "%a" Solution.pp (Engine.solution engine);
    edits = !edits;
    incremental = !incremental;
    dirty_share = !share;
  }
