(* The session traffic of one closed-loop client: a deterministic request
   stream drawn from the seed, sent in blocks.

   Each request targets a fixed set of [n] items of its kind, independent
   of the seed: [n] procedures to edit, [n] procedures to query-entry and
   [n] call sites to query-call-site, spread evenly over the program.  A
   block has [slots] = [reps * n] slots, enough for at least
   [min_slots]; each slot sends one edit, then two query-entry and two
   query-call-site requests, alternately.  Even slots start with
   query-entry and odd ones with query-call-site, so that a quarter of
   each kind's queries run right after an edit, not half of them: the
   median latency of a kind then lies inside the larger group, not on
   the boundary between queries after an edit and the rest.  The edit
   shifts all of one procedure's integer literals by one seeded offset,
   which keeps the program's shape.  The block ends with a shape change:
   one caller gets a call appended (so the engine rebuilds) and the next
   edit reverts it, so the program never drifts in size.

   Each kind walks its [n] items in seeded permutations, so a block hits
   every item of every kind the same number of times whatever the seed;
   the seed picks only the order, the literals and which caller takes
   the shape change.

   The mix is an assumption, since no client in the repository fixes it:
   a read-mostly client (four queries per edit) and one rebuild pair per
   block, so that the rebuild route runs every block but stays far from
   half of the edits, away from the median of their latency. *)

open Fsicp_lang
open Fsicp_callgraph
module Json = Fsicp_serve.Json

type kind = Edit | Entry | Call_site

type request = { kind : kind; json : string }

let max_items = 18
let min_slots = 18

(* A seeded permutation that is reshuffled each time it is used up. *)
type 'a cycle = { items : 'a array; mutable pos : int }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let next rng c =
  if c.pos = 0 then shuffle rng c.items;
  let x = c.items.(c.pos) in
  c.pos <- (c.pos + 1) mod Array.length c.items;
  x

type t = {
  rng : Random.State.t;
  prog : Ast.program;
  targets : Ast.proc cycle;  (** procedures to edit *)
  entries : Ast.proc cycle;  (** procedures to query-entry *)
  sites : (string * int) cycle;  (** (caller, call-site index) *)
  callers : Ast.proc cycle;  (** reachable procedures with a call site *)
  slots : int;
  mutable sent : int;
  mutable reshaped : Ast.proc option;  (** awaiting its revert *)
}

(* [k] items spread evenly over [l], in order. *)
let spread k l =
  let a = Array.of_list l in
  let n = Array.length a in
  List.init k (fun i -> a.(i * n / k))

let make ~seed (prog : Ast.program) : t =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let pcg = Callgraph.build prog in
  let reachable =
    List.filter (fun (p : Ast.proc) -> Callgraph.is_reachable pcg p.Ast.pname)
      prog.Ast.procs
  in
  let sites =
    List.concat_map
      (fun (p : Ast.proc) ->
        let n =
          Callgraph.n_call_sites pcg (Callgraph.proc_id_exn pcg p.Ast.pname)
        in
        List.init n (fun cs -> (p.Ast.pname, cs)))
      reachable
  in
  let n = min max_items (min (List.length reachable) (List.length sites)) in
  let cycle l = { items = Array.of_list l; pos = 0 } in
  let procs = spread n reachable in
  {
    rng;
    prog;
    targets = cycle procs;
    entries = cycle procs;
    sites = cycle (spread n sites);
    callers = cycle (List.filter (fun p -> Ast.call_sites p <> []) reachable);
    slots = (min_slots + n - 1) / n * n;
    sent = 0;
    reshaped = None;
  }

(** Requests per block. *)
let block_requests t = (5 * t.slots) + 2

let map_literals f body =
  let rec expr (e : Ast.expr) =
    match e with
    | Ast.Const (Value.Int k) -> Ast.Const (Value.Int (f k))
    | Ast.Const _ | Ast.Var _ -> e
    | Ast.Unary (o, a) -> Ast.Unary (o, expr a)
    | Ast.Binary (o, a, b) -> Ast.Binary (o, expr a, expr b)
  in
  let rec stmt (s : Ast.stmt) =
    let d =
      match s.Ast.sdesc with
      | Ast.Assign (x, e) -> Ast.Assign (x, expr e)
      | Ast.If (c, a, b) -> Ast.If (expr c, List.map stmt a, List.map stmt b)
      | Ast.While (c, b) -> Ast.While (expr c, List.map stmt b)
      | Ast.Call (q, args) -> Ast.Call (q, List.map expr args)
      | Ast.Print e -> Ast.Print (expr e)
      | Ast.Return -> Ast.Return
    in
    { s with Ast.sdesc = d }
  in
  List.map stmt body

(* The procedure with every integer literal shifted by one offset: equal
   literals stay equal and ordered ones stay ordered. *)
let perturbed t (p : Ast.proc) : Ast.proc =
  let d = 1 + Random.State.int t.rng 9 in
  { p with Ast.body = map_literals (fun k -> k + d) p.Ast.body }

(* [p] with a literal-argument copy of its first call appended (before a
   trailing return): one more call site, so the engine must rebuild. *)
let with_extra_call t (p : Ast.proc) : Ast.proc =
  let callee, _, _ = List.hd (Ast.call_sites p) in
  let arity = List.length (Ast.find_proc_exn t.prog callee).Ast.formals in
  let call =
    Ast.call callee (List.init arity (fun _ -> Ast.int (Random.State.int t.rng 100)))
  in
  let body =
    match List.rev p.Ast.body with
    | ({ Ast.sdesc = Ast.Return; _ } as r) :: rest -> List.rev (r :: call :: rest)
    | _ -> p.Ast.body @ [ call ]
  in
  { p with Ast.body }

let edit_json (p : Ast.proc) =
  Json.to_string
    (Json.Obj
       [ ("cmd", Json.Str "edit-proc"); ("source", Json.Str (Pretty.proc_to_string p)) ])

let entry_json (p : Ast.proc) =
  Json.to_string
    (Json.Obj [ ("cmd", Json.Str "query-entry"); ("proc", Json.Str p.Ast.pname) ])

let site_json (caller, cs) =
  Json.to_string
    (Json.Obj
       [ ("cmd", Json.Str "query-call-site"); ("caller", Json.Str caller); ("cs", Json.Int cs) ])

let next_request t : request =
  let i = t.sent mod block_requests t in
  t.sent <- t.sent + 1;
  if i < 5 * t.slots then
    let j = i mod 5 in
    if j = 0 then { kind = Edit; json = edit_json (perturbed t (next t.rng t.targets)) }
    else if (j mod 2 = 1) = ((i / 5) mod 2 = 0) then
      { kind = Entry; json = entry_json (next t.rng t.entries) }
    else { kind = Call_site; json = site_json (next t.rng t.sites) }
  else
    match t.reshaped with
    | None ->
        let p = next t.rng t.callers in
        t.reshaped <- Some p;
        { kind = Edit; json = edit_json (with_extra_call t p) }
    | Some p ->
        t.reshaped <- None;
        { kind = Edit; json = edit_json (perturbed t p) }

let load_json source =
  Json.to_string (Json.Obj [ ("cmd", Json.Str "load"); ("source", Json.Str source) ])
