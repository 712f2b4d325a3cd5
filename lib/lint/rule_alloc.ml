(* Rule family 3: no-alloc.

   Functions annotated [@lint.no_alloc] — Generate's Scratch digit
   loop, the Scratch in-place kernels under it and the table tier's
   kernel — promise a steady-state loop that allocates nothing.  The
   rule rejects syntactic allocation sources in their bodies:

   - tuple / record / payload-carrying constructor / variant / array /
     lazy construction;
   - closure creation, except named local functions ([let rec loop =
     fun ... ] directly under the annotated body), whose own bodies are
     still checked — the standard loop-workhorse shape;
   - calls into [Nat.*] (immutable bignums allocate per operation);
   - known allocating stdlib calls (list/array/string/bytes builders,
     [Printf]/[Format], [^], [@]); local [ref] accumulators are
     accepted — the carry/borrow idiom is one word-sized cell per call;
   - float boxing sources ([+.], [Float.of_int], ...): results of float
     arithmetic are boxed whenever stored or returned.

   Cold subtrees (one-time exit-path result construction, geometric
   workspace growth) carry [@lint.alloc_ok "reason"], which exempts the
   whole subtree and counts as a suppression.  Raising paths
   ([invalid_arg] preconditions, [raise Quotient_overflow]) are not
   flagged: failure is cold by construction.  Partial applications are
   approximated by the closure check — a partial application that
   matters syntactically appears as a [fun]. *)

open Ppxlib

let rule = Finding.No_alloc

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-." ]

let allocating_suffixes =
  [
    ([ "Array"; "make" ], "Array.make allocates");
    ([ "Array"; "init" ], "Array.init allocates");
    ([ "Array"; "create_float" ], "Array.create_float allocates");
    ([ "Array"; "copy" ], "Array.copy allocates");
    ([ "Array"; "append" ], "Array.append allocates");
    ([ "Array"; "sub" ], "Array.sub allocates");
    ([ "Array"; "of_list" ], "Array.of_list allocates");
    ([ "Array"; "to_list" ], "Array.to_list allocates");
    ([ "Array"; "map" ], "Array.map allocates");
    ([ "Array"; "mapi" ], "Array.mapi allocates");
    ([ "Array"; "concat" ], "Array.concat allocates");
    ([ "Bytes"; "create" ], "Bytes.create allocates");
    ([ "Bytes"; "make" ], "Bytes.make allocates");
    ([ "Bytes"; "copy" ], "Bytes.copy allocates");
    ([ "Bytes"; "sub" ], "Bytes.sub allocates");
    ([ "Bytes"; "of_string" ], "Bytes.of_string allocates");
    ([ "Bytes"; "to_string" ], "Bytes.to_string allocates");
    ([ "String"; "make" ], "String.make allocates");
    ([ "String"; "init" ], "String.init allocates");
    ([ "String"; "sub" ], "String.sub allocates");
    ([ "String"; "concat" ], "String.concat allocates");
    ([ "String"; "cat" ], "String.cat allocates");
    ([ "Hashtbl"; "create" ], "Hashtbl.create allocates");
    ([ "Buffer"; "create" ], "Buffer.create allocates");
    ([ "Buffer"; "contents" ], "Buffer.contents allocates");
  ]

(* Nat accessors that only read existing structure. *)
let nat_accessors = [ "limbs"; "is_zero"; "compare"; "length" ]

let classify_head path =
  match path with
  (* local [ref] accumulators are the kernels' carry/borrow idiom and
     deliberately accepted: one word-sized cell per call, not
     steady-state loop garbage *)
  | [ ("^" | "@") ] | [ "Stdlib"; ("^" | "@") ] ->
    Some
      (if Attrs.ends_with ~suffix:[ "^" ] path then "^ allocates a new string"
       else "@ allocates a new list")
  | [ op ] when List.mem op float_ops ->
    Some (Printf.sprintf "float operator ( %s ) is a boxing source" op)
  | [ ("float_of_int" | "float_of_string") ]
  | [ "Stdlib"; ("float_of_int" | "float_of_string") ] ->
    Some "float conversion is a boxing source"
  | "Float" :: _ | "Stdlib" :: "Float" :: _ ->
    Some
      (Printf.sprintf "%s is a float boxing source" (Attrs.path_string path))
  | ("Nat" :: _ :: _ | "Bignum" :: "Nat" :: _)
    when not
           (match Attrs.last path with
           | Some l -> List.mem l nat_accessors
           | None -> false) ->
    Some
      (Printf.sprintf "%s allocates immutable bignums"
         (Attrs.path_string path))
  | "List" :: _ :: _ | "Stdlib" :: "List" :: _ ->
    Some (Printf.sprintf "%s allocates list cells" (Attrs.path_string path))
  | "Printf" :: _ | "Format" :: _ ->
    Some
      (Printf.sprintf "%s allocates (formatting)" (Attrs.path_string path))
  | _ -> (
    match
      List.find_opt
        (fun (s, _) -> Attrs.ends_with ~suffix:s path)
        allocating_suffixes
    with
    | Some (_, what) -> Some what
    | None -> None)

let advice = "hoist it out of the kernel or mark the cold subtree [@lint.alloc_ok \"<reason>\"]"

(* Scan the body of one [@lint.no_alloc] function. *)
let scan_no_alloc_body (sink : Sink.t) body =
  let deliver = ref `Report in
  let hit loc what =
    match !deliver with
    | `Report ->
      sink.report rule loc
        (Printf.sprintf "%s inside a [@lint.no_alloc] function; %s" what advice)
    | `Suppress -> sink.suppress rule
  in
  let visitor =
    object (self)
      inherit Ast_traverse.iter as super

      method! function_body (fb : function_body) =
        match fb with
        | Pfunction_body e -> self#expression e
        | Pfunction_cases (cases, _, _) -> List.iter self#case cases

      method! expression e =
        if Attrs.has Attrs.alloc_ok e.pexp_attributes then begin
          (* one suppression per exempted subtree: walk it counting *)
          let saved = !deliver in
          deliver := `Suppress;
          self#scan_desc e;
          deliver := saved
        end
        else self#scan_desc e

      method scan_desc e =
        match e.pexp_desc with
        | Pexp_let (_, vbs, cont) ->
          List.iter
            (fun vb ->
              match vb.pvb_expr.pexp_desc with
              (* named local function: the loop-workhorse shape; its
                 one-time closure is allowed, its body is not exempt *)
              | Pexp_function (_, _, fb) -> self#function_body fb
              | _ -> self#expression vb.pvb_expr)
            vbs;
          self#expression cont
        | Pexp_function (_, _, fb) ->
          hit e.pexp_loc "closure construction";
          self#function_body fb
        | Pexp_tuple _ ->
          hit e.pexp_loc "tuple construction";
          super#expression e
        | Pexp_record _ ->
          hit e.pexp_loc "record construction";
          super#expression e
        | Pexp_construct (lid, Some _) ->
          (match Attrs.flatten_lid lid.txt with
          | Some path ->
            hit e.pexp_loc
              (Printf.sprintf "constructor %s carries a payload (allocates)"
                 (Attrs.path_string path))
          | None -> hit e.pexp_loc "constructor application allocates");
          super#expression e
        | Pexp_variant (_, Some _) ->
          hit e.pexp_loc "polymorphic variant with payload allocates";
          super#expression e
        | Pexp_array (_ :: _) ->
          hit e.pexp_loc "array literal allocates";
          super#expression e
        | Pexp_lazy _ ->
          hit e.pexp_loc "lazy suspension allocates";
          super#expression e
        | Pexp_apply (head, args) -> (
          match Attrs.head_path head with
          | Some ([ ("raise" | "raise_notrace" | "failwith" | "invalid_arg") ] as _p)
            ->
            (* raising is cold by construction; don't descend into the
               exception payload either *)
            ignore args
          | Some path -> (
            (match classify_head path with
            | Some what -> hit e.pexp_loc what
            | None -> ());
            List.iter (fun (_, a) -> self#expression a) args)
          | None -> super#expression e)
        | _ -> super#expression e
    end
  in
  match body.pexp_desc with
  (* skip the annotated function's own parameter chain *)
  | Pexp_function (_, _, fb) -> visitor#function_body fb
  | _ -> visitor#expression body

(* Find every [@lint.no_alloc] binding, anywhere in the file. *)
let check (sink : Sink.t) str =
  let finder =
    object
      inherit Ast_traverse.iter as super

      method! value_binding vb =
        if Attrs.has Attrs.no_alloc vb.pvb_attributes then
          scan_no_alloc_body sink vb.pvb_expr
        else super#value_binding vb
    end
  in
  finder#structure str

(* ------------------------------------------------------------------ *)
(* Interprocedural propagation.

   The per-file pass checks a kernel's own body.  This pass checks what
   it reaches: every call from a [@lint.no_alloc] kernel must land on a
   callee that is itself a kernel (checked separately), is marked
   [@lint.alloc_ok] (counted as a suppression), or can be *proven*
   allocation-free — its body passes the same scan and all of its own
   calls resolve to provable callees in turn.  An internal-looking call
   that cannot be resolved to a visible function is conservatively
   treated as allocating (the unknown-callee policy).

   Heads the per-site classifier already recognizes (Nat.*, List.*,
   Printf, ...) are skipped here: the per-file scan reported them. *)

type verdict =
  | Trusted  (** the callee is itself [@lint.no_alloc] *)
  | Sanctioned  (** the callee is marked [@lint.alloc_ok] *)
  | Clean
  | Dirty of string list  (** call chain ending in an allocation description *)

let check_graph (sink : Sink.t) (g : Callgraph.t) =
  let memo : (string, verdict) Hashtbl.t = Hashtbl.create 64 in
  let in_progress : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  (* scan a helper body once, counting its own [@lint.alloc_ok]
     suppressions globally and collecting the first allocation *)
  let body_dirt (fn : Callgraph.fn) =
    let first = ref None in
    let scan_sink =
      {
        Sink.report =
          (fun _ _ msg -> if !first = None then first := Some msg);
        suppress = (fun _ -> sink.suppress rule);
      }
    in
    scan_no_alloc_body scan_sink fn.Callgraph.fn_body;
    !first
  in
  let rec prove (fn : Callgraph.fn) : verdict =
    let key = Callgraph.fn_key fn in
    if Attrs.has Attrs.no_alloc fn.fn_attrs then Trusted
    else if Attrs.has Attrs.alloc_ok fn.fn_attrs then Sanctioned
    else
      match Hashtbl.find_opt memo key with
      | Some v -> v
      | None ->
        if Hashtbl.mem in_progress key then Clean (* optimistic on recursion *)
        else begin
          Hashtbl.add in_progress key ();
          let v =
            match body_dirt fn with
            | Some what -> Dirty [ what ]
            | None -> (
              let u = Hashtbl.find g.Callgraph.units fn.fn_unit in
              let offender =
                List.find_map
                  (fun (c : Callgraph.call) ->
                    if c.c_sup_alloc then None
                    else if classify_head c.c_path <> None then None
                      (* the body scan reported it *)
                    else
                      match Callgraph.resolve g u c.c_path with
                      | Callgraph.Fn target -> (
                        match prove target with
                        | Trusted | Clean -> None
                        | Sanctioned ->
                          sink.suppress rule;
                          None
                        | Dirty chain ->
                          Some (Attrs.path_string c.c_path :: chain))
                      | Callgraph.Opaque ->
                        Some
                          [
                            Printf.sprintf
                              "%s is not a visible function (conservative \
                               unknown-callee policy)"
                              (Attrs.path_string c.c_path);
                          ]
                      | Callgraph.External -> None)
                  fn.fn_calls
              in
              match offender with Some chain -> Dirty chain | None -> Clean)
          in
          Hashtbl.remove in_progress key;
          Hashtbl.replace memo key v;
          v
        end
  in
  Callgraph.all_fns g (fun _ fn ->
      if Attrs.has Attrs.no_alloc fn.Callgraph.fn_attrs then
        let u = Hashtbl.find g.Callgraph.units fn.fn_unit in
        List.iter
          (fun (c : Callgraph.call) ->
            if (not c.c_sup_alloc) && classify_head c.c_path = None then
              match Callgraph.resolve g u c.c_path with
              | Callgraph.Fn target -> (
                match prove target with
                | Trusted | Clean -> ()
                | Sanctioned -> sink.suppress rule
                | Dirty chain ->
                  sink.report rule c.c_loc
                    (Printf.sprintf
                       "[@lint.no_alloc] kernel %s calls %s, which may \
                        allocate (%s); prove the callee allocation-free or \
                        mark it [@lint.alloc_ok \"<reason>\"]"
                       fn.fn_name
                       (Attrs.path_string c.c_path)
                       (String.concat " -> "
                          (Attrs.path_string c.c_path :: chain))))
              | Callgraph.Opaque ->
                sink.report rule c.c_loc
                  (Printf.sprintf
                     "[@lint.no_alloc] kernel %s calls %s, which cannot be \
                      resolved to a visible function (conservative \
                      unknown-callee policy); %s"
                     fn.fn_name
                     (Attrs.path_string c.c_path)
                     advice)
              | Callgraph.External -> ()
            else if c.c_sup_alloc then ())
          fn.fn_calls)
