(** Semantic checks for MiniFort programs.  The analysis pipeline assumes
    [check]-clean input (calls resolve, arities match, no duplicate
    declarations). *)

type error = {
  msg : string;
  where : string;  (** procedure name, or ["<program>"] *)
  pos : Ast.pos;
}

val pp_error : error Fmt.t

exception Illformed of error list

(** Variable classification shared with lowering: formals shadow globals;
    anything else is a procedure-local. *)
type var_class = Formal of int | Global | Local

val classify :
  globals:string list -> formals:string list -> string -> var_class

(** Hashed variant of {!classify} for bulk per-procedure resolution: builds
    the lookup table once (O(globals + formals)) so each subsequent query is
    O(1).  Result-identical to {!classify} for every identifier. *)
val classifier :
  globals:string list -> formals:string list -> string -> var_class

val check : Ast.program -> (unit, error list) result

(** @raise Illformed when [check] reports errors. *)
val check_exn : Ast.program -> unit

(** [check_proc ~lookup p]: only the checks local to procedure [p]
    (duplicate formals, formals named like procedures, call resolution
    and arity, assignments to procedure names), resolving procedure names
    through [lookup].  When [p] replaces the procedure of the same name
    and formals in a [check]-clean program, the edited program passes
    {!check} iff [check_proc] passes, with the same errors. *)
val check_proc :
  lookup:(string -> Ast.proc option) -> Ast.proc -> (unit, error list) result

(** @raise Illformed when [check_proc] reports errors. *)
val check_proc_exn : lookup:(string -> Ast.proc option) -> Ast.proc -> unit

val errors_to_string : error list -> string
