(** The full compilation-model pipeline of paper Figure 2, with per-phase
    wall-clock timings backing the paper's cost claim. *)

open Fsicp_lang
open Fsicp_ipa

type timing = {
  t_phase : string;
  t_seconds : float;
  t_minor_words : float;  (** words allocated on the calling domain *)
  t_major_words : float;
}

type t = {
  ctx : Context.t;
  fi : Solution.t;
  fs : Solution.t;
  cc : Solution.t option;  (** copy-constant; [Some] iff run [~extended] *)
  vc : Solution.t option;  (** value-context; [Some] iff run [~extended] *)
  use : Use.t;
  timings : timing list;
}

(** Run steps 1–6 on a {!Sema.check}-clean program, one phase after the
    other on the calling domain.  The per-procedure work inside a phase
    (lowering, the FS ICP's SSA pre-build) runs on [jobs] domains (default
    {!Fsicp_par.Par.default_jobs}); results are identical for every
    [jobs].  [extended] (default [false]) additionally runs the
    beyond-the-paper methods — copy-constant ({!Cc_icp}, phase
    ["5c:cc-icp"]) and value-context ({!Vc_icp}, phase ["5d:vc-icp"]) —
    after the paper's FI/FS pair; the default leaves the paper's Figure-2
    phase trace untouched. *)
val run : ?floats:bool -> ?jobs:int -> ?extended:bool -> Ast.program -> t

val timing_of : t -> string -> float option
val fi_seconds : t -> float
val fs_seconds : t -> float
val pp : t Fmt.t
