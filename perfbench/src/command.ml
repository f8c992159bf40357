(* The operations a run times, each calling the same public functions as
   the CLI subcommand it stands for, in one process, at an explicit job
   count. *)

open Fsicp_lang
open Fsicp_core
module Verify = Fsicp_verify.Verify
module Json = Fsicp_serve.Json
module Protocol = Fsicp_serve.Protocol

exception Bad_input of string

(* [fsicp]'s read_program, minus the file I/O. *)
let parse_check (label, src) : Ast.program =
  match Parser.program_of_string src with
  | exception Parser.Error (msg, _) -> raise (Bad_input (label ^ ": " ^ msg))
  | exception Lexer.Error (msg, _) -> raise (Bad_input (label ^ ": " ^ msg))
  | prog -> (
      match Sema.check prog with
      | Ok () -> prog
      | Error es -> raise (Bad_input (label ^ ": " ^ Sema.errors_to_string es)))

let candidates_line (c : Metrics.candidates_row) =
  Printf.sprintf "call sites: %d args, %d literal, %d FI-constant, %d FS-constant\n"
    c.Metrics.cd_args c.Metrics.cd_imm c.Metrics.cd_fi c.Metrics.cd_fs

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

type analyzed = { a_prog : Ast.program; a_fs : Solution.t; a_out : string }

(** [fsicp analyze FILE --jobs N]: source text to the printed FS report
    and the call-site candidate line. *)
let analyze ~jobs ((label, _) as input) : analyzed =
  let prog = parse_check input in
  let ctx = Context.create ~jobs prog in
  let sol = Fs_icp.solve ~jobs ctx in
  let report = Fmt.str "%a" Solution.pp sol in
  let c =
    Metrics.candidates ctx ~fi:(Fi_icp.solve ctx) ~fs:(Fs_icp.solve ~jobs ctx)
      ~name:label
  in
  { a_prog = prog; a_fs = sol; a_out = report ^ candidates_line c }

(* ------------------------------------------------------------------ *)
(* methods                                                             *)
(* ------------------------------------------------------------------ *)

(** A shared context with every SSA form built, so the method pass times
    the solvers alone. *)
let methods_context prog =
  let ctx = Context.create ~jobs:1 prog in
  Context.build_ssa ~jobs:1 ctx;
  ctx

let returns_text (rc : Return_consts.t) =
  Hashtbl.fold (fun p s acc -> (p, s) :: acc) rc.Return_consts.summaries []
  |> List.sort compare
  |> List.map (fun (p, (s : Return_consts.summary)) ->
         Printf.sprintf "returns %s: %s\n" p
           (String.concat " "
              (Array.to_list
                 (Array.map Fsicp_scc.Lattice.to_string s.Return_consts.rs_formals))))
  |> String.concat ""

(* Where a traced run splits an operation into layers: [run name f]
   calls [f] inside the layer [name].  The real path runs [f] as is. *)
type layer = { run : 'a. string -> (unit -> 'a) -> 'a }

let direct = { run = (fun _ f -> f ()) }

let jf_layer = function
  | Jump_functions.Literal -> "core.jf_literal"
  | Jump_functions.Intra -> "core.jf_intra"
  | Jump_functions.Pass_through -> "core.jf_pass"
  | Jump_functions.Polynomial -> "core.poly"

(** Every method [--method] offers except the reference solver, plus the
    paper's return-constants pass, over one shared context; returns the
    printed solutions. *)
let methods ?(layer = direct) ctx : string =
  let fi = layer.run "core.fi" (fun () -> Fi_icp.solve ctx) in
  let fs = layer.run "core.fs" (fun () -> Fs_icp.solve ~jobs:1 ~fi ctx) in
  let jfs =
    List.map
      (fun v -> layer.run (jf_layer v) (fun () -> Jump_functions.solve ctx v))
      Jump_functions.all_variants
  in
  let rc = layer.run "core.return_consts" (fun () -> Return_consts.compute ctx ~fs) in
  let cc = layer.run "core.cc" (fun () -> Cc_icp.solve ~jobs:1 ctx) in
  let vc = layer.run "core.vc" (fun () -> Vc_icp.solve ~jobs:1 ctx) in
  String.concat ""
    (List.map (Fmt.str "%a" Solution.pp) ((fi :: fs :: jfs) @ [ cc; vc ])
    @ [ returns_text rc ])

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

type verdicts = {
  proved : int;
  inconclusive : int;
  refuted : int;
  v_out : string;  (** the VC lines [fsicp verify] prints *)
  v_prog : Ast.program;
  v_trans : Ast.program list;  (** the transformed programs *)
}

let verdicts_of prog ~trans (reports : Verify.report list) : verdicts =
  let vcs = List.concat_map (fun r -> r.Verify.r_vcs) reports in
  let count f = List.length (List.filter f vcs) in
  let line (vc : Verify.vc) =
    match vc.Verify.vc_verdict with
    | Verify.Proved -> Fmt.str "%a\n" Verify.pp_vc vc
    | v -> Fmt.str "%a\n        %a\n" Verify.pp_vc vc Verify.pp_verdict v
  in
  {
    proved = count (fun vc -> vc.Verify.vc_verdict = Verify.Proved);
    inconclusive =
      count (fun vc ->
          match vc.Verify.vc_verdict with Verify.Inconclusive _ -> true | _ -> false);
    refuted =
      count (fun vc ->
          match vc.Verify.vc_verdict with Verify.Refuted _ -> true | _ -> false);
    v_out = String.concat "" (List.map line vcs);
    v_prog = prog;
    v_trans = trans;
  }

(** [fsicp verify FILE --solver symbolic --jobs N]: source text to the
    verdicts, default fuel.  The loop is [fsicp verify]'s own, which is
    [Verify.verify_program]'s: each transformation, then its VCs. *)
let verify ?(layer = direct) ~jobs input : verdicts =
  let prog = parse_check input in
  let ctx = Context.create ~jobs prog in
  let solution = Fs_icp.solve ~jobs ctx in
  let steps =
    List.map
      (fun transform ->
        let trans =
          layer.run "core.transform" (fun () ->
              Verify.apply_transform ctx ~solution transform)
        in
        let vcs =
          layer.run "verify.vc" (fun () ->
              Verify.vcs ~backend:Verify.Symbolic ctx ~solution ~transform ~trans)
        in
        (trans, { Verify.r_transform = transform; r_vcs = vcs }))
      Verify.transform_names
  in
  verdicts_of prog ~trans:(List.map fst steps) (List.map snd steps)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let version = "perfbench"

(** One request from JSON text in to JSON text out, as [fsicp serve]
    answers a frame; [true] when the response says [ok]. *)
let request (st : Protocol.state) (text : string) : string * bool =
  match Json.of_string text with
  | Error msg -> (msg, false)
  | Ok req ->
      let resp = Protocol.handle st req in
      (Json.to_string resp, Json.member "ok" resp = Some (Json.Bool true))

(** A resident engine at jobs=1, loaded through the protocol. *)
let load_session source : Protocol.state =
  let st = Protocol.make_state ~jobs:1 ~version () in
  let _, ok = request st (Traffic.load_json source) in
  if not ok then raise (Bad_input "session program refused by load");
  st

let engine (st : Protocol.state) =
  match st.Protocol.engine with Some e -> e | None -> assert false

(** Does the engine's answer equal a from-scratch solve of the program it
    now holds? *)
let engine_agrees st : bool =
  let e = engine st in
  let prog = (Engine.context e).Context.prog in
  let fresh = Fs_icp.solve ~jobs:1 (Context.create ~jobs:1 prog) in
  String.equal
    (Fmt.str "%a" Solution.pp (Engine.solution e))
    (Fmt.str "%a" Solution.pp fresh)
