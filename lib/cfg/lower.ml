(** Lowering from the MiniFort AST to the quad IR of {!Ir}.

    The lowering flattens expressions into temporaries, translates structured
    control flow ([if]/[while]) into explicit branches, numbers call sites in
    textual order, and finally prunes blocks made unreachable by [return]
    (blocks that only the analysis can prove unreachable are of course
    kept — discovering those is the constant propagator's job). *)

open Fsicp_lang

type builder = {
  prog : Ast.program;
  formals : string list;
  classify : string -> Sema.var_class;
      (** hashed {!Sema.classifier} over the program's globals and this
          procedure's formals: one table build per procedure instead of a
          global-list scan per identifier occurrence *)
  mutable instrs : Ir.instr list array;
      (** finished block id -> its instructions, reversed; a growable
          array, valid below [cur_id] *)
  mutable terms : Ir.terminator option array;
      (** finished block id -> terminator, parallel to [instrs]; [None] is
          a placeholder {!patch}ed once the successor is known *)
  mutable cur : Ir.instr list;  (** current block's instructions, reversed *)
  mutable cur_id : int;
  mutable next_temp : int;
  mutable next_cs : int;
}

let resolve (b : builder) (x : string) : Ir.var =
  match b.classify x with
  | Sema.Formal i -> Ir.formal x i
  | Sema.Global -> Ir.global x
  | Sema.Local -> Ir.local x

let fresh_temp b =
  let t = Ir.temp b.next_temp in
  b.next_temp <- b.next_temp + 1;
  t

let emit b ins = b.cur <- ins :: b.cur

(* Finish the current block with terminator [term] and start block [next].
   Block ids are assigned sequentially, so the caller knows the id of the
   block about to start: it is [b.cur_id + 1]. *)
let finish_block b term =
  let cap = Array.length b.terms in
  if b.cur_id = cap then begin
    let n = max 16 (2 * cap) in
    let instrs = Array.make n [] and terms = Array.make n None in
    Array.blit b.instrs 0 instrs 0 cap;
    Array.blit b.terms 0 terms 0 cap;
    b.instrs <- instrs;
    b.terms <- terms
  end;
  b.instrs.(b.cur_id) <- b.cur;
  b.terms.(b.cur_id) <- term;
  b.cur <- [];
  b.cur_id <- b.cur_id + 1

(** Lower an expression to an operand, emitting temporaries as needed.
    Literals stay [Const]; bare variables stay [Var]; compound expressions
    land in a fresh temp. *)
let rec lower_expr b (e : Ast.expr) : Ir.operand =
  match e with
  | Ast.Const v -> Ir.Const v
  | Ast.Var x -> Ir.Var (resolve b x)
  | Ast.Unary (op, e) ->
      let o = lower_expr b e in
      let t = fresh_temp b in
      emit b (Ir.Assign (t, Ir.Unop (op, o)));
      Ir.Var t
  | Ast.Binary (op, l, r) ->
      let lo = lower_expr b l in
      let ro = lower_expr b r in
      let t = fresh_temp b in
      emit b (Ir.Assign (t, Ir.Binop (op, lo, ro)));
      Ir.Var t

let lower_arg b (e : Ast.expr) : Ir.arg =
  match e with
  | Ast.Var x ->
      let v = resolve b x in
      { Ir.a_operand = Ir.Var v; a_byref = Some v }
  | e -> { Ir.a_operand = lower_expr b e; a_byref = None }

let rec lower_block b (body : Ast.stmt list) =
  List.iter (lower_stmt b) body

and lower_stmt b (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Ast.Assign (x, e) ->
      let o = lower_expr b e in
      emit b (Ir.Assign (resolve b x, Ir.Copy o))
  | Ast.Print e ->
      let o = lower_expr b e in
      emit b (Ir.Print o)
  | Ast.Call (q, args) ->
      let args = Array.of_list (List.map (lower_arg b) args) in
      let cs_id = b.next_cs in
      b.next_cs <- b.next_cs + 1;
      emit b (Ir.Call { cs_id; callee = q; args })
  | Ast.Return -> finish_block b (Some Ir.Ret)
  | Ast.If (c, then_, else_) ->
      let co = lower_expr b c in
      (* Layout: [cond] -> then_blk .. -> join; else_blk .. -> join.
         Ids are sequential; we don't know the join id until both arms are
         lowered, so use placeholder [None] terminators (fallthrough) and a
         patch list. *)
      let cond_block = b.cur_id in
      finish_block b None (* patched to Cond below *);
      let then_entry = b.cur_id in
      lower_block b then_;
      let then_exit = b.cur_id in
      finish_block b None (* patched to Goto join *);
      let else_entry = b.cur_id in
      lower_block b else_;
      let else_exit = b.cur_id in
      finish_block b None (* patched to Goto join *);
      let join = b.cur_id in
      patch b cond_block (Ir.Cond (co, then_entry, else_entry));
      patch b then_exit (Ir.Goto join);
      patch b else_exit (Ir.Goto join)
  | Ast.While (c, body) ->
      let pre = b.cur_id in
      finish_block b None;
      let header = b.cur_id in
      let co = lower_expr b c in
      let cond_block = b.cur_id in
      finish_block b None;
      let body_entry = b.cur_id in
      lower_block b body;
      let body_exit = b.cur_id in
      finish_block b (Some (Ir.Goto header));
      let exit = b.cur_id in
      patch b pre (Ir.Goto header);
      patch b cond_block (Ir.Cond (co, body_entry, exit));
      ignore body_exit;
      ignore body_entry

(* Patch the (placeholder) terminator of an already-finished block. *)
and patch b id term =
  if id < 0 || id >= b.cur_id then invalid_arg "Lower.patch: no such block";
  assert (b.terms.(id) = None);
  b.terms.(id) <- Some term

(* Remove blocks unreachable from the entry and remap ids.  The search is
   tail-recursive over an explicit stack, so its depth does not follow the
   nesting depth of the source. *)
let prune_unreachable (cfg : Ir.cfg) : Ir.cfg =
  let n = Array.length cfg.Ir.blocks in
  let reach = Array.make n false in
  let push stack s =
    if reach.(s) then stack
    else begin
      reach.(s) <- true;
      s :: stack
    end
  in
  let rec dfs = function
    | [] -> ()
    | i :: stack ->
        dfs (List.fold_left push stack (Ir.successors cfg.Ir.blocks.(i)))
  in
  dfs (push [] cfg.Ir.entry);
  let remap = Array.make n (-1) in
  let count = ref 0 in
  Array.iteri
    (fun i r ->
      if r then begin
        remap.(i) <- !count;
        incr count
      end)
    reach;
  let remap_term = function
    | Ir.Goto t -> Ir.Goto remap.(t)
    | Ir.Cond (c, t, f) -> Ir.Cond (c, remap.(t), remap.(f))
    | Ir.Ret -> Ir.Ret
  in
  let blocks =
    Array.of_list
      (List.filteri (fun i _ -> reach.(i)) (Array.to_list cfg.Ir.blocks)
      |> List.map (fun (b : Ir.block) -> { b with Ir.term = remap_term b.Ir.term }))
  in
  { Ir.blocks; entry = remap.(cfg.Ir.entry) }

(** Lower one procedure. *)
let lower_proc (prog : Ast.program) (p : Ast.proc) : Ir.proc =
  let b =
    {
      prog;
      formals = p.Ast.formals;
      classify =
        Sema.classifier ~globals:prog.Ast.globals ~formals:p.Ast.formals;
      instrs = [||];
      terms = [||];
      cur = [];
      cur_id = 0;
      next_temp = 0;
      next_cs = 0;
    }
  in
  lower_block b p.Ast.body;
  finish_block b (Some Ir.Ret);
  let blocks =
    Array.init b.cur_id (fun i ->
        {
          Ir.instrs = Array.of_list (List.rev b.instrs.(i));
          term = (match b.terms.(i) with Some t -> t | None -> Ir.Ret);
        })
  in
  let cfg = prune_unreachable { Ir.blocks; entry = 0 } in
  {
    Ir.name = p.Ast.pname;
    formals = Array.of_list (List.mapi (fun i f -> Ir.formal f i) p.Ast.formals);
    cfg;
    n_call_sites = b.next_cs;
  }

(** Lower every procedure of a program.  The program must be
    {!Sema.check}-clean. *)
let lower_program (prog : Ast.program) : Ir.proc list =
  List.map (lower_proc prog) prog.Ast.procs
