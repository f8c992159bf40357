(** Implementation of the program database.  See the interface for the
    design contract; the notes here are about the concurrency model.

    [Proc] is trivially safe: a database is built once (single-domain) by
    [Callgraph.build] and read-only afterwards.

    [Var] is a process-global interner shared by all worker domains: the
    parallel lowering/SSA phases intern temporaries concurrently.  The
    name->id table is guarded by a mutex; the reverse id->name array is
    published through an [Atomic.t] so that [name] — called from
    pretty-printers and sort keys on other domains — needs no lock.  A
    reader can only hold an id that some [intern] call returned, and the
    array snapshot it reads was published at or after that point, so the
    slot is always initialised. *)

module Proc = struct
  type id = int

  let to_int i = i
  let equal : id -> id -> bool = Int.equal
  let compare : id -> id -> int = Int.compare
  let hash (i : id) = i
  let pp ppf (i : id) = Fmt.pf ppf "p%d" i

  module Tbl = struct
    type 'a t = 'a array

    let make n default = Array.make n default
    let init n f = Array.init n f
    let length = Array.length
    let get (t : 'a t) (i : id) = t.(i)
    let set (t : 'a t) (i : id) v = t.(i) <- v
    let iteri = Array.iteri
    let fold f t acc =
      let acc = ref acc in
      Array.iteri (fun i v -> acc := f i v !acc) t;
      !acc

    let map = Array.map
    let copy = Array.copy
  end
end

module Var = struct
  type id = int

  let lock = Mutex.create ()
  let ids : (string, int) Hashtbl.t = Hashtbl.create 1024
  let names : string array Atomic.t = Atomic.make (Array.make 1024 "")
  let next = ref 0

  let intern s =
    Mutex.lock lock;
    let id =
      match Hashtbl.find_opt ids s with
      | Some i -> i
      | None ->
          let i = !next in
          incr next;
          let arr = Atomic.get names in
          let arr =
            if i < Array.length arr then arr
            else begin
              let bigger = Array.make (2 * Array.length arr) "" in
              Array.blit arr 0 bigger 0 (Array.length arr);
              bigger
            end
          in
          arr.(i) <- s;
          (* Publish after the slot is written: readers that obtained [i]
             observe a snapshot no older than this one. *)
          Atomic.set names arr;
          Hashtbl.add ids s i;
          i
    in
    Mutex.unlock lock;
    id

  let name (i : id) = (Atomic.get names).(i)
  let to_int i = i
  let equal : id -> id -> bool = Int.equal
  let compare : id -> id -> int = Int.compare
  let hash (i : id) = i
  let pp ppf i = Fmt.string ppf (name i)
end

module Valpool = struct
  (* Same publication discipline as [Var]: mutex-guarded key table, reverse
     array published through an [Atomic.t] so [get] is lock-free.

     Keys canonicalise the [Value.equal] equivalence classes that have more
     than one machine representation: every nan collapses to one slot, and
     [-0.0]/[0.0] collapse to one slot ([Float.equal] identifies both
     pairs).  The first value interned for a class is the one stored, so a
     pooled index round-trips to a [Value.equal]-equivalent value and equal
     indices mean [Value.equal] values. *)
  type key = KInt of int | KReal of int64

  let key_of (v : Fsicp_lang.Value.t) =
    match v with
    | Int n -> KInt n
    | Real r ->
        if Float.is_nan r then KReal 0x7ff8000000000001L
        else if r = 0.0 then KReal 0L
        else KReal (Int64.bits_of_float r)

  let lock = Mutex.create ()
  let ids : (key, int) Hashtbl.t = Hashtbl.create 256

  let values : Fsicp_lang.Value.t array Atomic.t =
    Atomic.make (Array.make 256 (Fsicp_lang.Value.Int 0))

  let next = ref 0

  let intern (v : Fsicp_lang.Value.t) =
    let k = key_of v in
    Mutex.lock lock;
    let id =
      match Hashtbl.find_opt ids k with
      | Some i -> i
      | None ->
          let i = !next in
          incr next;
          let arr = Atomic.get values in
          let arr =
            if i < Array.length arr then arr
            else begin
              let bigger =
                Array.make (2 * Array.length arr) (Fsicp_lang.Value.Int 0)
              in
              Array.blit arr 0 bigger 0 (Array.length arr);
              bigger
            end
          in
          arr.(i) <- v;
          Atomic.set values arr;
          Hashtbl.add ids k i;
          i
    in
    Mutex.unlock lock;
    id

  let get (i : int) = (Atomic.get values).(i)
end

module Bits = struct
  type t = { words : Bytes.t; n : int }

  let create n = { words = Bytes.make ((n + 7) / 8) '\000'; n }
  let length t = t.n

  let set t i =
    let b = Char.code (Bytes.get t.words (i lsr 3)) in
    Bytes.set t.words (i lsr 3) (Char.chr (b lor (1 lsl (i land 7))))

  let mem t i =
    Char.code (Bytes.get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let count t =
    let c = ref 0 in
    for i = 0 to t.n - 1 do
      if mem t i then incr c
    done;
    !c
end

type t = { names : string array; ids : (string, int) Hashtbl.t }

let of_names names =
  let names = Array.copy names in
  let ids = Hashtbl.create (2 * Array.length names) in
  Array.iteri
    (fun i n ->
      if Hashtbl.mem ids n then
        invalid_arg (Printf.sprintf "Prog.of_names: duplicate procedure %S" n);
      Hashtbl.add ids n i)
    names;
  { names; ids }

let n_procs t = Array.length t.names
let proc_id t name : Proc.id option = Hashtbl.find_opt t.ids name

let proc_id_exn t name : Proc.id =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Prog.proc_id_exn: %S" name)

let proc_name t (i : Proc.id) = t.names.(i)
let mem t name = Hashtbl.mem t.ids name
let procs t : Proc.id array = Array.init (n_procs t) Fun.id
let tbl t default = Proc.Tbl.make (n_procs t) default
let tbl_init t f = Proc.Tbl.init (n_procs t) f
