(* One benchmark run: set-up, then either the timed rounds (end-to-end
   metrics, tracing off, jobs=1) or the traced layer-by-layer run
   (per-layer metrics). *)

open Fsicp_lang
open Fsicp_core
module Trace = Fsicp_trace.Trace
module Protocol = Fsicp_serve.Protocol
module Oracle = Fsicp_oracle.Oracle

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let quantile q l =
  match List.sort Float.compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let x = q *. float (n - 1) in
      let i = int_of_float x in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((x -. float i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* ------------------------------------------------------------------ *)
(* Correctness bookkeeping                                             *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** one line per failure kind seen *)
}

let tally () = { attempted = 0; failed = 0; notes = [] }

let attempt t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if not (List.mem what t.notes) then t.notes <- what :: t.notes
  end

(* Output hashes recorded per (workload, op, input).  The inputs do not
   depend on the seed, so one record serves every seed.  In record mode
   an input with no record is held to the first output this run saw;
   otherwise it fails. *)
module Expected = struct
  type t = { hashes : (string, string) Hashtbl.t; record : bool }

  let key w op label = String.concat " " [ w; op; label ]

  let load ~record path : t =
    let t = Hashtbl.create 32 in
    (match path with
    | None -> ()
    | Some path ->
        let ic = open_in path in
        (try
           while true do
             match String.split_on_char ' ' (String.trim (input_line ic)) with
             | [ w; op; label; h ] when w.[0] <> '#' ->
                 Hashtbl.replace t (key w op label) h
             | _ -> ()
           done
         with End_of_file -> ());
        close_in ic);
    { hashes = t; record }

  let hash s = Digest.to_hex (Digest.string s)

  (** [None] if [out] matches the record, else what is wrong. *)
  let check (t : t) w op label out =
    let k = key w op label and h = hash out in
    match Hashtbl.find_opt t.hashes k with
    | Some r when String.equal r h -> None
    | Some _ -> Some (Printf.sprintf "%s output differs from the record" op)
    | None when t.record ->
        Hashtbl.add t.hashes k h;
        None
    | None -> Some ("no record for " ^ k)

  let lines (t : t) =
    Hashtbl.fold (fun k h acc -> (k ^ " " ^ h) :: acc) t.hashes []
    |> List.sort compare
end

(* Count the output check of [Expected.check] as an op. *)
let attempt_output tl ex w op label out =
  match Expected.check ex w op label out with
  | None -> attempt tl true ""
  | Some what -> attempt tl false what

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type env = {
  kind : Workload.kind;
  inputs : Workload.inputs;
  progs : Ast.program list;  (** the analyze inputs, parsed *)
  session_prog : Ast.program;
  st : Protocol.state;
  traffic : Traffic.t;
}

(** Generate the inputs from the seed, parse and check them, and load the
    session engine through the protocol. *)
let setup kind ~seed : env =
  let inputs = Workload.inputs kind in
  let progs = List.map Command.parse_check inputs.Workload.analyze in
  if inputs.Workload.verify != inputs.Workload.analyze then
    List.iter (fun i -> ignore (Command.parse_check i)) inputs.Workload.verify;
  let session_prog = Command.parse_check inputs.Workload.session in
  let st = Command.load_session (snd inputs.Workload.session) in
  { kind; inputs; progs; session_prog; st; traffic = Traffic.make ~seed session_prog }

(* Each set-up starts from a compacted heap, as a fresh process would. *)
let timed_setup kind ~seed : env * float =
  Gc.compact ();
  Clock.time (fun () -> setup kind ~seed)

(* ------------------------------------------------------------------ *)
(* Timed rounds                                                        *)
(* ------------------------------------------------------------------ *)

(* A round sets up once more (timed, then dropped), runs each operation
   once, then sends one block of client requests
   ([Traffic.block_requests]) in [chunk]s; rounds repeat until the run's
   time is spent.  The calibration kernel runs between every two timed
   steps, so each sample is scaled by the host speed of its own moment.
   Interleaving spreads any slow spell of the host over every metric
   instead of one. *)
let chunk = 20
let min_rounds = 3
let check_every = 25  (** edits between engine-versus-scratch checks *)

(* Samples in reference seconds. *)
type samples = {
  mutable setup : float list;
  mutable analyze : float list;
  mutable methods : float list;
  mutable verify : float list;
  mutable edit : float list;
  mutable entry : float list;  (** query-entry latencies *)
  mutable site : float list;  (** query-call-site latencies *)
  mutable wall : (string * float) list;  (** raw wall seconds, by op *)
  mutable factors : float list;
  mutable rounds : int;
  mutable edits : int;
  mutable proved : int;
  mutable vcs : int;
}

let wname env = Workload.name env.kind

let analyze_pass env ex tl ~first =
  let outs, dt =
    Clock.time (fun () -> List.map (Command.analyze ~jobs:1) env.inputs.Workload.analyze)
  in
  List.iter2
    (fun (label, _) (a : Command.analyzed) ->
      attempt_output tl ex (wname env) "analyze" label a.Command.a_out;
      (* The interpreter check runs once per input and run. *)
      if first then
        attempt tl
          (Result.is_ok (Oracle.check_solution_sound a.Command.a_prog a.Command.a_fs))
          "interpreter contradicts an FS entry constant")
    env.inputs.Workload.analyze outs;
  dt

let methods_pass env ex tl =
  let ctxs = List.map Command.methods_context env.progs in
  let outs, dt = Clock.time (fun () -> List.map Command.methods ctxs) in
  List.iter2
    (fun (label, _) out ->
      attempt_output tl ex (wname env) "methods" label out)
    env.inputs.Workload.analyze outs;
  dt

let verify_pass env ex tl (s : samples) =
  let vs, dt =
    Clock.time (fun () -> List.map (Command.verify ~jobs:1) env.inputs.Workload.verify)
  in
  List.iter2
    (fun (label, _) (v : Command.verdicts) ->
      attempt_output tl ex (wname env) "verify" label v.Command.v_out;
      attempt tl (v.Command.refuted = 0) "a VC was refuted";
      s.proved <- s.proved + v.Command.proved;
      s.vcs <- s.vcs + v.Command.proved + v.Command.inconclusive + v.Command.refuted)
    env.inputs.Workload.verify vs;
  dt

(* Wall seconds of the chunk's [n] requests, by kind. *)
let client_chunk env tl (s : samples) n =
  let edits = ref [] and entries = ref [] and sites = ref [] in
  for _ = 1 to n do
    let r = Traffic.next_request env.traffic in
    let (_, ok), dt = Clock.time (fun () -> Command.request env.st r.Traffic.json) in
    attempt tl ok "a request answered ok:false";
    match r.Traffic.kind with
    | Traffic.Entry -> entries := dt :: !entries
    | Traffic.Call_site -> sites := dt :: !sites
    | Traffic.Edit ->
        edits := dt :: !edits;
        s.edits <- s.edits + 1;
        if s.edits mod check_every = 0 then
          attempt tl (Command.engine_agrees env.st)
            "engine answer differs from a from-scratch solve"
  done;
  (!edits, !entries, !sites)

let round env ex tl (s : samples) ch ~seed ~first =
  let step name f =
    let dt, k = Calib.step ch f in
    s.wall <- (name, dt) :: s.wall;
    s.factors <- k :: s.factors;
    dt *. k
  in
  s.setup <- step "setup" (fun () -> snd (timed_setup env.kind ~seed)) :: s.setup;
  s.analyze <- step "analyze" (fun () -> analyze_pass env ex tl ~first) :: s.analyze;
  s.methods <- step "methods" (fun () -> methods_pass env ex tl) :: s.methods;
  s.verify <- step "verify" (fun () -> verify_pass env ex tl s) :: s.verify;
  let n = Traffic.block_requests env.traffic in
  for c = 0 to ((n + chunk - 1) / chunk) - 1 do
    let (edits, entries, sites), k =
      Calib.step ch (fun () -> client_chunk env tl s (min chunk (n - (c * chunk))))
    in
    let tag name = List.map (fun x -> (name, x)) in
    s.wall <- tag "edit" edits @ tag "entry" entries @ tag "site" sites @ s.wall;
    let scale = List.map (( *. ) k) in
    s.edit <- scale edits @ s.edit;
    s.entry <- scale entries @ s.entry;
    s.site <- scale sites @ s.site
  done

let rounds env ex tl ~seed ~seconds : samples =
  let s =
    { setup = []; analyze = []; methods = []; verify = []; edit = []; entry = []; site = [];
      wall = []; factors = []; rounds = 0; edits = 0; proved = 0; vcs = 0 }
  in
  let ch = Calib.chain () in
  let deadline = Clock.now () +. seconds in
  while s.rounds < min_rounds || Clock.now () < deadline do
    round env ex tl s ch ~seed ~first:(s.rounds = 0);
    s.rounds <- s.rounds + 1
  done;
  s

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_line (tl : tally) (ms : metric list) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tl.failed = 0) tl.attempted tl.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
              (json_float x.m_value) x.m_unit)
          ms))

let host () =
  Printf.sprintf "nproc=%d ocaml=%s" (Domain.recommended_domain_count ())
    Sys.ocaml_version

let peak_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let failures tl = String.concat "" (List.map (fun n -> "; FAILED: " ^ n) tl.notes)

(** The end-to-end run: every metric at jobs=1 with tracing off, times in
    reference seconds (see [Calib]). *)
let end_to_end kind ~seed ~seconds ~expected ~record :
    tally * metric list * string * Expected.t =
  Trace.set_enabled false;
  let ex = Expected.load ~record expected in
  let tl = tally () in
  let env, _ = timed_setup kind ~seed in
  let s = rounds env ex tl ~seed ~seconds in
  let ms =
    [
      m "setup_s" "s" (median s.setup);
      m "analyze_s" "s" (median s.analyze);
      m "methods_s" "s" (median s.methods);
      m "verify_s" "s" (median s.verify);
      m "vc_proved_ratio" "ratio" (float s.proved /. float (max 1 s.vcs));
      m "edit_s" "s" (median s.edit);
      m "query_s" "s" ((median s.entry +. median s.site) /. 2.);
      m "peak_heap_mb" "MB" (peak_heap_mb ());
    ]
  in
  let tail name l =
    Printf.sprintf "%s p50=%.3g p90=%.3g p99=%.3g n=%d" name (median l)
      (quantile 0.9 l) (quantile 0.99 l) (List.length l)
  in
  let wall name =
    Printf.sprintf "%s=%.4g" name
      (median (List.filter_map (fun (n, x) -> if n = name then Some x else None) s.wall))
  in
  let record =
    Printf.sprintf
      "record: workload=%s seed=%d %s jobs=1 rounds=%d; reference s: %s %s; \
       wall s (median): %s; host speed %.3f of reference%s"
      (Workload.name kind) seed (host ()) s.rounds (tail "edit_s" s.edit)
      (tail "query-entry" s.entry ^ " " ^ tail "query-call-site" s.site)
      (String.concat " "
         (List.map wall [ "setup"; "analyze"; "methods"; "verify"; "edit"; "entry"; "site" ]))
      (median s.factors) (failures tl)
  in
  (tl, ms, record, ex)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* Blocks of requests ([Traffic.block_requests]) the traced run replays
   through both the real and the replica serve path. *)
let session_blocks = 2
let overhead_reps = 5

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* One traced pass: the layer-by-layer replica of every operation at
   jobs=1 with tracing on, checked against the real path, then the
   parallel layers again at jobs=nproc.  [out] receives the Chrome trace
   and the inputs. *)
let traced_pass env ex tl ~seed ~out : metric list =
  let w = wname env in
  let inputs = env.inputs.Workload.analyze in
  let nproc = Domain.recommended_domain_count () in
  let same what a b =
    attempt tl (String.equal a b) ("replica differs from the real path: " ^ what)
  in
  (* The real path, untraced: the reference every replica must print. *)
  let real = List.map (Command.analyze ~jobs:1) inputs in
  List.iter2
    (fun (label, _) (a : Command.analyzed) ->
      attempt_output tl ex w "analyze" label a.Command.a_out)
    inputs real;
  (* Tracing overhead on the real path: interleaved traced/untraced. *)
  let ch = Calib.chain () in
  let pass on =
    Trace.set_enabled on;
    let dt, k =
      Calib.step ch (fun () ->
          snd (Clock.time (fun () -> ignore (List.map (Command.analyze ~jobs:1) inputs))))
    in
    dt *. k
  in
  let plain, traced =
    List.split (List.init overhead_reps (fun _ -> let p = pass false in (p, pass true)))
  in
  (* analyze, layer by layer, jobs=1; the Chrome trace holds this pass. *)
  Trace.reset ();
  Trace.set_enabled true;
  let la = Layers.create () in
  let (reps, wall), k =
    Calib.bracket (fun () ->
        Clock.time (fun () -> List.map (Layers.analyze la ~jobs:1) inputs))
  in
  la.Layers.factor <- k;
  let visits = Trace.counter_total "scc.block_visits" in
  let hits = Trace.counter_total "scc.memo_hits" in
  let coverage = Layers.total la /. wall in
  Option.iter
    (fun dir ->
      let dir = Filename.concat dir w in
      mkdir_p dir;
      List.iter
        (fun (label, src) -> write_file (Filename.concat dir (label ^ ".mf")) src)
        (env.inputs.Workload.analyze @ env.inputs.Workload.verify);
      Trace.write_chrome_json ~mode:Trace.Wall
        (Filename.concat dir (Printf.sprintf "seed%d.trace.json" seed)))
    out;
  Trace.reset ();
  let same_analyses what =
    List.iter2
      (fun (a : Command.analyzed) (r : Layers.analyzed) ->
        same what a.Command.a_out r.Layers.out)
      real
  in
  same_analyses "analyze, jobs=1" reps;
  let blocks, phis, names =
    List.fold_left
      (fun (b, p, n) r ->
        let b', p', n' = Layers.ssa_counts r in
        (b + b', p + p', n + n'))
      (0, 0, 0) reps
  in
  List.iter (Layers.use la) reps;
  (* methods and verify: the real path, split into layers *)
  let lm = Layers.create () in
  let ctxs = List.map Command.methods_context env.progs in
  let outs, k =
    Calib.bracket (fun () ->
        List.map (Command.methods ~layer:(Layers.as_layer lm)) ctxs)
  in
  lm.Layers.factor <- k;
  List.iter2
    (fun (label, _) out -> attempt_output tl ex w "methods" label out)
    inputs outs;
  let lv = Layers.create () in
  let verified, k =
    Calib.bracket (fun () ->
        List.map
          (Command.verify ~layer:(Layers.as_layer lv) ~jobs:1)
          env.inputs.Workload.verify)
  in
  lv.Layers.factor <- k;
  let vcs = ref 0 and proved = ref 0 and inconclusive = ref 0 and changed = ref 0 in
  List.iter2
    (fun (label, _) (v : Command.verdicts) ->
      attempt_output tl ex w "verify" label v.Command.v_out;
      attempt tl (v.Command.refuted = 0) "a VC was refuted";
      vcs := !vcs + v.Command.proved + v.Command.inconclusive + v.Command.refuted;
      proved := !proved + v.Command.proved;
      inconclusive := !inconclusive + v.Command.inconclusive;
      List.iter
        (fun trans -> changed := !changed + Layers.modified v.Command.v_prog trans)
        v.Command.v_trans)
    env.inputs.Workload.verify verified;
  (* serve: the same request stream through the replica and the real
     path. *)
  let traffic = Traffic.make ~seed env.session_prog in
  let n_reqs = session_blocks * Traffic.block_requests traffic in
  let reqs = List.init n_reqs (fun _ -> Traffic.next_request traffic) in
  let ls = Layers.create () in
  let sess, k = Calib.bracket (fun () -> Layers.session ls env.session_prog reqs) in
  ls.Layers.factor <- k;
  let st = Command.load_session (snd env.inputs.Workload.session) in
  let responses =
    List.filter_map
      (fun (r : Traffic.request) ->
        let resp, ok = Command.request st r.Traffic.json in
        attempt tl ok "a request answered ok:false";
        match r.Traffic.kind with
        | Traffic.Entry | Traffic.Call_site -> Some resp
        | Traffic.Edit -> None)
      reqs
  in
  same "serve responses" (String.concat "\n" responses)
    (String.concat "\n" sess.Layers.responses);
  same "engine solution"
    (Fmt.str "%a" Solution.pp (Engine.solution (Command.engine st)))
    sess.Layers.final;
  attempt tl (Command.engine_agrees st) "engine answer differs from a from-scratch solve";
  (* The layers with a parallel path, again at jobs=nproc. *)
  let lj = Layers.create () in
  let repj, k =
    Calib.bracket (fun () -> List.map (Layers.analyze lj ~jobs:nproc) inputs)
  in
  lj.Layers.factor <- k;
  same_analyses "analyze, jobs=nproc" repj;
  let (_, verify_jn), k =
    Calib.bracket (fun () ->
        Clock.time (fun () ->
            List.map (Command.verify ~jobs:nproc) env.inputs.Workload.verify))
  in
  let verify_jn = verify_jn *. k in
  Trace.set_enabled false;
  let s t name = Layers.seconds t name in
  let per t name n = Layers.seconds t name /. float (max 1 n) in
  let minor t name = (Layers.stat t name).Layers.minor_words /. 1e6 in
  let major t name = (Layers.stat t name).Layers.major_words /. 1e6 in
  let n_queries = List.length sess.Layers.responses in
  let ms =
    List.map (fun l -> m (l ^ "_s") "s" (s la l))
      [ "lang.parse"; "lang.sema"; "callgraph.build"; "ipa.summary"; "ipa.alias";
        "ipa.modref"; "ipa.use"; "cfg.lower"; "cfg.dominance"; "ssa.build" ]
    @ [
        m "cfg.blocks" "count" (float blocks);
        m "ssa.phis" "count" (float phis);
        m "ssa.names" "count" (float names);
        m "core.fi_s" "s" (s la "core.fi");
        m "core.fs_s" "s" (s la "core.fs");
        m "scc.block_visits" "count" (float visits);
        m "scc.memo_hits" "count" (float hits);
      ]
    @ List.map (fun l -> m (l ^ "_s") "s" (s lm l))
        [ "core.jf_literal"; "core.jf_intra"; "core.jf_pass"; "core.poly";
          "core.return_consts"; "core.cc"; "core.vc" ]
    @ [
        m "core.transform_s" "s" (s lv "core.transform");
        m "core.transform.modified" "count" (float !changed);
        m "verify.vc_s" "s" (per lv "verify.vc" !vcs);
        m "verify.vcs" "count" (float !vcs);
        m "verify.proved" "count" (float !proved);
        m "verify.inconclusive" "count" (float !inconclusive);
        m "engine.create_s" "s" (s ls "engine.create");
        m "engine.edit_s" "s" (per ls "engine.edit" sess.Layers.edits);
        m "engine.incremental_ratio" "ratio"
          (float sess.Layers.incremental /. float (max 1 sess.Layers.edits));
        m "engine.dirty_share" "ratio"
          (sess.Layers.dirty_share /. float (max 1 sess.Layers.incremental));
        m "serve.decode_s" "s" (per ls "serve.decode" n_reqs);
        m "serve.handle_s" "s" (per ls "serve.handle" n_queries);
        m "serve.encode_s" "s" (per ls "serve.encode" n_queries);
        m "core.report_s" "s" (s la "core.report");
      ]
    @ List.concat_map
        (fun (t, l, n) ->
          [
            m (l ^ ".minor_mw") "Mw" (minor t l /. float n);
            m (l ^ ".major_mw") "Mw" (major t l /. float n);
          ])
        [ (la, "ssa.build", 1); (la, "ipa.summary", 1); (la, "core.fs", 1);
          (lv, "verify.vc", 1); (ls, "engine.edit", max 1 sess.Layers.edits) ]
    @ [
        m "cfg.lower.jn_s" "s" (s lj "cfg.lower");
        m "ssa.build.jn_s" "s" (s lj "ssa.build");
        m "core.fs.jn_s" "s" (s lj "core.fs");
        m "verify.jn_s" "s" verify_jn;
        m "trace.coverage" "ratio" coverage;
        m "trace.overhead" "ratio" (median traced /. median plain);
      ]
  in
  ms

(** The per-layer run: traced passes until [seconds] have passed (at
    least one); each metric is the median over the passes. *)
let traced kind ~seed ~seconds ~expected ~record ~out :
    tally * metric list * string * Expected.t =
  let ex = Expected.load ~record expected in
  let tl = tally () in
  Trace.set_enabled false;
  let env = setup kind ~seed in
  let deadline = Clock.now () +. seconds in
  let rec go acc =
    let ms = traced_pass env ex tl ~seed ~out:(if acc = [] then out else None) in
    if Clock.now () < deadline then go (ms :: acc) else ms :: acc
  in
  let passes = go [] in
  let value name ms = (List.find (fun x -> x.m_name = name) ms).m_value in
  let ms =
    List.map
      (fun x -> { x with m_value = median (List.map (value x.m_name) passes) })
      (List.hd passes)
  in
  let record =
    Printf.sprintf
      "record: workload=%s seed=%d %s jobs=1 traced, %d passes; parallel layers at jobs=%d%s"
      (Workload.name kind) seed (host ()) (List.length passes)
      (Domain.recommended_domain_count ()) (failures tl)
  in
  (tl, ms, record, ex)
