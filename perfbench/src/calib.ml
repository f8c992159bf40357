(* Host-speed calibration.  On a shared virtual machine the speed of the
   whole vCPU drifts by ±20% within a minute (other tenants on the same
   cores), and every piece of code slows down alike.  Each timed step is
   therefore bracketed by this fixed kernel, and times are reported in
   reference seconds: wall seconds x [reference_s] / kernel seconds.

   The kernel is a frozen miniature of the analyses' own work mix: a
   worklist propagation over a random graph through hash tables, queues
   and lists, then a sort of the result.  Of the kernels tried, its time
   tracks the analyze passes of all three workloads most closely (log-log
   slope 0.94 to 0.98 across a minute of host drift; 0.72 to 0.85 for an
   allocation-free pointer chase).  It uses the standard library only, so
   no change to fsicp can move it, and its data is small and short-lived,
   so fsicp's heap barely can. *)

let reference_s = 0.025  (** kernel duration on the reference host *)

let propagate seed =
  let st = Random.State.make [| seed |] in
  let n = 3000 in
  let succ =
    Array.init n (fun i -> if i + 1 < n then [ i + 1; Random.State.int st n ] else [])
  in
  let value = Hashtbl.create 64 in
  let work = Queue.create () in
  Queue.add 0 work;
  let steps = ref 0 in
  while (not (Queue.is_empty work)) && !steps < 40_000 do
    incr steps;
    let b = Queue.pop work in
    let v = Option.value (Hashtbl.find_opt value b) ~default:0 in
    List.iter
      (fun s ->
        let old = Option.value (Hashtbl.find_opt value s) ~default:(-1) in
        let nv = max old (((v * 31) + s) land 0xffff) in
        if nv <> old then begin
          Hashtbl.replace value s nv;
          Queue.add s work
        end)
      succ.(b)
  done;
  Hashtbl.fold (fun k v acc -> (k, string_of_int v) :: acc) value []
  |> List.sort compare |> List.length

let kernel () =
  let n = ref 0 in
  for seed = 1 to 8 do
    n := !n + propagate seed
  done;
  ignore (Sys.opaque_identity !n)

(** Seconds the kernel takes now. *)
let measure () = snd (Clock.time kernel)

(** A chain of timed steps: each step's closing kernel run opens the
    next. *)
type chain = { mutable last : float }

let chain () = { last = measure () }

(** [f ()] and the factor that turns the wall seconds measured inside it
    into reference seconds, from the kernel runs just before and after. *)
let step ch f =
  let r = f () in
  let c = measure () in
  let k = reference_s /. ((ch.last +. c) /. 2.) in
  ch.last <- c;
  (r, k)

(** A chain of one step. *)
let bracket f = step (chain ()) f
