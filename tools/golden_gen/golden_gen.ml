(** Regenerate the golden equivalence fixtures under [test/golden/].

    For every MiniFort program in [testdata/] and every constant-propagation
    method, dump the rendered {!Fsicp_core.Solution.pp} output to
    [test/golden/<program>.<method>.expected].  Additionally dump the
    logical-mode Chrome trace of a jobs=1 {!Fsicp_core.Driver.run} to
    [test/golden/<program>.trace.expected], pinning the byte-deterministic
    trace format, and the concatenated SMT-LIB2 renderings of every
    translation-validation VC (all four transformations, symbolic backend,
    FS solution) to [test/golden/<program>.smt2.expected].  The fixtures pin
    the user-visible analysis results; [test/test_golden.ml] and
    [test/test_verify.ml] assert the live pipeline still reproduces them
    byte for byte.

    Usage: [dune exec tools/golden_gen/golden_gen.exe -- TESTDATA_DIR OUT_DIR] *)

open Fsicp_lang
open Fsicp_core
module Trace = Fsicp_trace.Trace
module Verify = Fsicp_verify.Verify

let read_program path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  let prog = Parser.program_of_string src in
  (match Sema.check prog with
  | Ok () -> ()
  | Error es ->
      Fmt.epr "%s: semantic errors:@\n%s@." path (Sema.errors_to_string es);
      exit 2);
  prog

let methods : (string * (Context.t -> Solution.t)) list =
  [
    ("fi", fun ctx -> Fi_icp.solve ctx);
    ("fs", fun ctx -> Fs_icp.solve ctx);
    ("ref", Reference.solve);
    ("cc", fun ctx -> Cc_icp.solve ctx);
    ("vc", fun ctx -> Vc_icp.solve ctx);
    ("literal", fun ctx -> Jump_functions.solve ctx Jump_functions.Literal);
    ("intra", fun ctx -> Jump_functions.solve ctx Jump_functions.Intra);
    ("pass", fun ctx -> Jump_functions.solve ctx Jump_functions.Pass_through);
    ("poly", fun ctx -> Jump_functions.solve ctx Jump_functions.Polynomial);
  ]

let () =
  let testdata, out =
    match Sys.argv with
    | [| _; t; o |] -> (t, o)
    | _ -> ("testdata", "test/golden")
  in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  Sys.readdir testdata |> Array.to_list |> List.sort String.compare
  |> List.iter (fun file ->
         if Filename.check_suffix file ".mf" then begin
           let base = Filename.chop_suffix file ".mf" in
           let prog = read_program (Filename.concat testdata file) in
           List.iter
             (fun (mname, solve) ->
               let ctx = Context.create prog in
               let rendered = Fmt.str "%a" Solution.pp (solve ctx) in
               let path =
                 Filename.concat out
                   (Printf.sprintf "%s.%s.expected" base mname)
               in
               let oc = open_out_bin path in
               output_string oc rendered;
               close_out oc;
               Fmt.pr "wrote %s (%d bytes)@." path (String.length rendered))
             methods;
           (* Logical-mode trace of the full pipeline at jobs=1: the event
              order, epochs, args and counter values are all deterministic,
              so the whole JSON document is a byte-stable fixture. *)
           Trace.reset ();
           Trace.set_enabled true;
           ignore (Driver.run ~jobs:1 prog);
           Trace.set_enabled false;
           let rendered = Trace.to_chrome_json ~mode:Trace.Logical () in
           let path =
             Filename.concat out (Printf.sprintf "%s.trace.expected" base)
           in
           let oc = open_out_bin path in
           output_string oc rendered;
           close_out oc;
           Fmt.pr "wrote %s (%d bytes)@." path (String.length rendered);
           (* Translation-validation VCs under the symbolic backend: the
              rendered SMT-LIB2 text (declarations, assertions, verdict
              headers) is deterministic for a given program, so the whole
              concatenated document is a byte-stable fixture too. *)
           let ctx = Context.create prog in
           let fs = Fs_icp.solve ctx in
           let reports = Verify.verify_program ctx ~solution:fs in
           let rendered =
             reports
             |> List.concat_map (fun r -> r.Verify.r_vcs)
             |> List.map Verify.render
             |> String.concat "\n"
           in
           let path =
             Filename.concat out (Printf.sprintf "%s.smt2.expected" base)
           in
           let oc = open_out_bin path in
           output_string oc rendered;
           close_out oc;
           Fmt.pr "wrote %s (%d bytes)@." path (String.length rendered)
         end)
