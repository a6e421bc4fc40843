type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

(* [spaced] puts a space after each ',' and ':' — the one-line fragments
   of the pretty printer; the compact form has none *)
let rec write ~spaced buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s -> escape_to buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf (if spaced then ", " else ",");
        write ~spaced buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf (if spaced then ", " else ",");
        escape_to buf k;
        Buffer.add_string buf (if spaced then ": " else ":");
        write ~spaced buf v)
      fields;
    Buffer.add_char buf '}'

let to_buffer buf j = write ~spaced:false buf j

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

(* a container whose compact form would run past column 100 is broken into
   one member per line, indented two spaces per level; anything that fits
   stays on one line *)
let to_string_pretty j =
  let buf = Buffer.create 4096 in
  let rec go ~col ~indent j =
    let flat = Buffer.create 64 in
    write ~spaced:true flat j;
    let members =
      match j with
      | List xs -> Some ('[', ']', List.map (fun x -> ("", x)) xs)
      | Obj fs ->
        Some ('{', '}', List.map (fun (k, v) -> (to_string (Str k) ^ ": ", v)) fs)
      | _ -> None
    in
    match members with
    | Some (opening, closing, (_ :: _ as members))
      when col + Buffer.length flat > 100 ->
      let pad = indent + 2 in
      Buffer.add_char buf opening;
      List.iteri
        (fun i (key, v) ->
          Buffer.add_string buf (if i = 0 then "\n" else ",\n");
          Buffer.add_string buf (String.make pad ' ');
          Buffer.add_string buf key;
          go ~col:(pad + String.length key) ~indent:pad v)
        members;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf closing
    | _ -> Buffer.add_buffer buf flat
  in
  go ~col:0 ~indent:0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let fixed digits x = Float (float_of_string (Printf.sprintf "%.*f" digits x))

(* ------------------------------------------------------------------ *)
(* Parsing — recursive descent over a string with a mutable cursor     *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let fail cur msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let n = String.length cur.s in
  while
    cur.pos < n
    && (match cur.s.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance cur
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let parse_literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.s
    && String.sub cur.s cur.pos n = word
  then (
    cur.pos <- cur.pos + n;
    value)
  else fail cur (Printf.sprintf "expected '%s'" word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
      | Some '"' -> Buffer.add_char buf '"'; advance cur
      | Some '\\' -> Buffer.add_char buf '\\'; advance cur
      | Some '/' -> Buffer.add_char buf '/'; advance cur
      | Some 'n' -> Buffer.add_char buf '\n'; advance cur
      | Some 'r' -> Buffer.add_char buf '\r'; advance cur
      | Some 't' -> Buffer.add_char buf '\t'; advance cur
      | Some 'b' -> Buffer.add_char buf '\b'; advance cur
      | Some 'f' -> Buffer.add_char buf '\012'; advance cur
      | Some 'u' ->
        advance cur;
        if cur.pos + 4 > String.length cur.s then fail cur "bad \\u escape";
        let hex = String.sub cur.s cur.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex)
          with _ -> fail cur "bad \\u escape"
        in
        cur.pos <- cur.pos + 4;
        (* Encode as UTF-8; surrogate pairs are not recombined — the
           emitter only ever writes \u00xx control escapes. *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then (
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
        else (
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
      | _ -> fail cur "bad escape");
      loop ()
    | Some c ->
      Buffer.add_char buf c;
      advance cur;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let n = String.length cur.s in
  let is_float = ref false in
  if peek cur = Some '-' then advance cur;
  while
    cur.pos < n
    &&
    match cur.s.[cur.pos] with
    | '0' .. '9' -> true
    | '.' | 'e' | 'E' | '+' | '-' ->
      is_float := true;
      true
    | _ -> false
  do
    advance cur
  done;
  let text = String.sub cur.s start (cur.pos - start) in
  if text = "" || text = "-" then fail cur "expected number";
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail cur "bad number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> parse_literal cur "null" Null
  | Some 't' -> parse_literal cur "true" (Bool true)
  | Some 'f' -> parse_literal cur "false" (Bool false)
  | Some '"' -> Str (parse_string cur)
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then (
      advance cur;
      List [])
    else
      let rec items acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> fail cur "expected ',' or ']'"
      in
      List (items [])
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then (
      advance cur;
      Obj [])
    else
      let rec fields acc =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance cur;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail cur "expected ',' or '}'"
      in
      fields []
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let cur = { s; pos = 0 } in
  match parse_value cur with
  | v ->
    skip_ws cur;
    if cur.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" cur.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_list_opt = function List xs -> Some xs | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None
let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
