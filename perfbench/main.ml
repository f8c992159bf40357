(* perfbench: the fsicp benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--expected FILE] [--out DIR] [--record]

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones; the last line of standard output is the JSON result.
   --record prints the output hashes of this run in the format of
   --expected, instead of the result; only then may an input lack a
   record in the --expected file. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-suite|deep-shapes|edit-session --seed N \
     --seconds S --trace 0|1 [--expected FILE] [--out DIR] [--record]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and expected = ref None and out = ref None in
  let record = ref false in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := Workload.of_name w;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: n :: rest ->
        seed := Some (int_arg n);
        parse rest
    | "--seconds" :: n :: rest ->
        seconds := Some (float (int_arg n));
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := Some (t = "1");
        parse rest
    | "--expected" :: f :: rest ->
        expected := Some f;
        parse rest
    | "--out" :: d :: rest ->
        out := Some d;
        parse rest
    | "--record" :: rest ->
        record := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some kind, Some seed, Some seconds, Some traced ->
      let tl, metrics, record_line, ex =
        let record = !record and expected = !expected in
        if traced then Run.traced kind ~seed ~seconds ~expected ~record ~out:!out
        else Run.end_to_end kind ~seed ~seconds ~expected ~record
      in
      if !record then List.iter print_endline (Run.Expected.lines ex)
      else begin
        print_endline record_line;
        print_endline (Run.result_line tl metrics)
      end
  | _ -> usage ()
