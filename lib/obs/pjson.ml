(* The one JSON value type: builders, the one printer (document layout and
   JSONL line), and a strict recursive-descent parser.  See pjson.mli. *)

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

(* ----------------------------- building ----------------------------- *)

let int n = Num (string_of_int n)

let fixed d x =
  if Float.is_finite x then Num (Printf.sprintf "%.*f" d x) else Null

let exp d x =
  if Float.is_finite x then Num (Printf.sprintf "%.*e" d x) else Null

let opt f = function Some v -> f v | None -> Null

(* ----------------------------- printing ----------------------------- *)

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let container = function Obj _ | Arr _ -> true | _ -> false

(* [broken] is the document layout's rule: an array holding an object or
   an array prints one element per line at [depth + 1] levels of indent;
   [to_line] never breaks. *)
let print ~broken v =
  let b = Buffer.create 4096 in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num s -> Buffer.add_string b s
    | Str s -> add_escaped b s
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ", ";
            add_escaped b k;
            Buffer.add_string b ": ";
            go depth v)
          kvs;
        Buffer.add_char b '}'
    | Arr vs when broken && List.exists container vs ->
        let indent n = Buffer.add_string b (String.make (2 * n) ' ') in
        Buffer.add_string b "[\n";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string b ",\n";
            indent (depth + 1);
            go (depth + 1) v)
          vs;
        Buffer.add_char b '\n';
        indent depth;
        Buffer.add_char b ']'
    | Arr vs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string b ", ";
            go depth v)
          vs;
        Buffer.add_char b ']'
  in
  go 0 v;
  b

let to_string v =
  let b = print ~broken:true v in
  Buffer.add_char b '\n';
  Buffer.contents b

let to_line v = Buffer.contents (print ~broken:false v)

(* ----------------------------- parsing ------------------------------ *)

let add_utf8 b u =
  let byte x = Buffer.add_char b (Char.chr x) in
  if u < 0x80 then byte u
  else if u < 0x800 then begin
    byte (0xc0 lor (u lsr 6));
    byte (0x80 lor (u land 0x3f))
  end
  else if u < 0x10000 then begin
    byte (0xe0 lor (u lsr 12));
    byte (0x80 lor ((u lsr 6) land 0x3f));
    byte (0x80 lor (u land 0x3f))
  end
  else begin
    byte (0xf0 lor (u lsr 18));
    byte (0x80 lor ((u lsr 12) land 0x3f));
    byte (0x80 lor ((u lsr 6) land 0x3f));
    byte (0x80 lor (u land 0x3f))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let w = String.length word in
    if !pos + w <= n && String.sub s !pos w = word then begin
      pos := !pos + w;
      v
    end
    else fail ("expected " ^ word)
  in
  (* The four hex digits after "\u", [pos] on the 'u'; leaves [pos] on
     the last digit. *)
  let hex4 () =
    if !pos + 4 >= n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' -> Char.code c - 87
      | 'A' .. 'F' -> Char.code c - 55
      | _ -> fail "bad \\u escape"
    in
    let v = ref 0 in
    for i = 1 to 4 do
      v := (!v * 16) + digit s.[!pos + i]
    done;
    pos := !pos + 4;
    !v
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
          advance ();
          Buffer.contents b
      | '\\' ->
          advance ();
          if !pos >= n then fail "truncated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' -> (
              let u = hex4 () in
              match u with
              | _ when u >= 0xd800 && u < 0xdc00 ->
                  if
                    !pos + 2 < n
                    && s.[!pos + 1] = '\\'
                    && s.[!pos + 2] = 'u'
                  then begin
                    pos := !pos + 2;
                    let lo = hex4 () in
                    if lo < 0xdc00 || lo >= 0xe000 then
                      fail "unpaired \\u surrogate";
                    add_utf8 b
                      (0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00))
                  end
                  else fail "unpaired \\u surrogate"
              | _ when u >= 0xdc00 && u < 0xe000 ->
                  fail "unpaired \\u surrogate"
              | _ -> add_utf8 b u)
          | _ -> fail "bad escape");
          advance ();
          go ()
      | c when Char.code c < 0x20 -> fail "unescaped control character"
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ()
  in
  (* JSON's number grammar: an optional minus, then 0 or a nonzero digit
     and more digits, then an optional fraction (a dot and digits), then
     an optional exponent (e or E, an optional sign, digits). *)
  let number () =
    let start = !pos in
    let digit () = match peek () with Some '0' .. '9' -> true | _ -> false in
    let digits () =
      if not (digit ()) then fail "malformed number";
      while digit () do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | Some '1' .. '9' -> digits ()
    | _ ->
        fail (if !pos = start then "expected a value" else "malformed number"));
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    String.sub s start (!pos - start)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_result s = try Ok (parse s) with Bad msg -> Error msg

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let num = function
  | Num s -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Some f
      | _ -> None)
  | _ -> None

let str = function Str s -> Some s | _ -> None
let arr = function Arr l -> Some l | _ -> None

let num_exn = function
  | Num s as v -> (
      match num v with
      | Some f -> f
      | None -> raise (Bad (Printf.sprintf "number %s is out of range" s)))
  | _ -> raise (Bad "expected a number")

let str_exn = function Str s -> s | _ -> raise (Bad "expected a string")
let arr_exn = function Arr l -> l | _ -> raise (Bad "expected an array")

let int_exn = function
  | Num s
    when not (String.exists (function '.' | 'e' | 'E' -> true | _ -> false) s)
    -> (
      match int_of_string_opt s with
      | Some i -> i
      | None -> raise (Bad (Printf.sprintf "integer %s is out of range" s)))
  | Num s -> raise (Bad (Printf.sprintf "expected an integer, got %s" s))
  | _ -> raise (Bad "expected an integer")
