(** Deep procedure shapes built with {!Fsicp_lang.Builder}, shared by the
    SSA tests and the deep-shape smoke executable.

    Each shape is one procedure [name(a, b)] with a huge body; {!program}
    wraps shapes in a [main] that calls each of them with two different
    first arguments, so formal [a] is ⊥ and every branch stays
    executable. *)

open Fsicp_lang
module B = Builder

(** [depth] ifs nested in their then arms.  Each level bumps [x] before
    its test (a compound expression, so temporaries in every block), and
    each else arm bumps [y]. *)
let if_nest ~depth : Ast.proc =
  let rec nest k =
    let k1 = k + 1 in
    if k = depth then B.[ "x" <-- v "x" + i 1 ]
    else
      B.
        [
          "x" <-- v "x" + i k1;
          if_ (v "a" > i k) (nest k1) [ "y" <-- v "y" + i k1 ];
        ]
  in
  B.proc "ifnest" [ "a"; "b" ]
    (B.[ "x" <-- i 1; "y" <-- v "b" ] @ nest 0 @ B.[ print (v "x"); print (v "y") ])

(** [depth] nested while loops, each running once; the innermost body
    accumulates the ⊥ formal. *)
let while_nest ~depth : Ast.proc =
  let iv k = "i" ^ string_of_int k in
  let rec nest k =
    if k = depth then B.[ "s" <-- v "s" + v "a" ]
    else
      let body = nest (k + 1) @ B.[ iv k <-- v (iv k) + i 1 ] in
      B.[ iv k <-- i 0; while_ (v (iv k) < i 1) body ]
  in
  B.proc "whilenest" [ "a"; "b" ]
    (B.[ "s" <-- v "b" ] @ nest 0 @ B.[ print (v "s") ])

(** [len] statements of straight-line code over a rotating window of 64
    locals. *)
let straight ~len : Ast.proc =
  let width = 64 in
  let t k = "t" ^ string_of_int (k mod width) in
  let stmt k =
    let prev = B.v (t (k + width - 1)) in
    if k mod 7 = 0 then B.(t k <-- prev + v "a")
    else B.(t k <-- prev + i (k mod 13))
  in
  B.proc "straight" [ "a"; "b" ]
    (List.init width (fun k -> B.(t k <-- v "b" + i k))
    @ List.init len stmt
    @ [ B.print (B.v (t 0)); B.print (B.v (t (len - 1))) ])

(** One diamond whose arms each assign [width] variables, then a chain
    that reads them all: a join block carrying [width] phis. *)
let wide_join ~width : Ast.proc =
  let w k = "w" ^ string_of_int k in
  let arm d =
    List.init width (fun k ->
        Ast.assign (w k) (Ast.int (if k mod 2 = 0 then k else k + d)))
  in
  B.proc "join" [ "a"; "b" ]
    (B.[ if_ (v "a" > i 0) (arm 1) (arm 2); "s" <-- v "b" ]
    @ List.init width (fun k -> B.("s" <-- v "s" + v (w k)))
    @ B.[ print (v "s") ])

(** A checked program whose [main] calls every shape twice. *)
let program (shapes : Ast.proc list) : Ast.program =
  let calls =
    List.concat_map
      (fun (p : Ast.proc) ->
        B.[ call p.Ast.pname [ i 1; i 5 ]; call p.Ast.pname [ i 2; i 5 ] ])
      shapes
  in
  B.program_exn (B.proc "main" [] calls :: shapes)

(** The four deep bodies at moderate sizes. *)
let deep () : Ast.program =
  program
    [
      if_nest ~depth:300;
      while_nest ~depth:40;
      straight ~len:2000;
      wide_join ~width:200;
    ]
