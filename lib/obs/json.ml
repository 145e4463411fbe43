(* A minimal JSON value type with a printer and a recursive-descent
   parser.  The telemetry subsystem must stay dependency-free, and the
   benchmark harness needs machine-readable output that round-trips, so
   this is hand-rolled rather than pulled from opam. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape buf s =
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

(* Floats must survive print-then-parse: integral floats keep a ".0" so
   they do not come back as [Int], and everything else uses enough digits
   to be exact.  JSON has no token for non-finite floats, so NaN and the
   infinities are encoded deterministically as the strings "NaN",
   "Infinity" and "-Infinity"; [to_float] decodes them back, and the
   parser rejects the bare (invalid-JSON) tokens with a clear error. *)
let float_repr f =
  if Float.is_nan f then "\"NaN\""
  else if f = Float.infinity then "\"Infinity\""
  else if f = Float.neg_infinity then "\"-Infinity\""
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* Indented form, for files meant to be read by humans too. *)
let rec write_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | String _) as v -> write buf v
  | List [] -> Buffer.add_string buf "[]"
  | Obj [] -> Buffer.add_string buf "{}"
  | List items ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        write_pretty buf (indent + 2) v)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf ']'
  | Obj fields ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        escape buf k;
        Buffer.add_string buf ": ";
        write_pretty buf (indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf '}'

let to_pretty_string v =
  let buf = Buffer.create 1024 in
  write_pretty buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_pretty_string v)

(* --- parsing --- *)

exception Malformed of string

type cursor = { src : string; mutable pos : int }

let error cur msg =
  raise (Malformed (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let skip_ws cur =
  while
    cur.pos < String.length cur.src
    && match cur.src.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    cur.pos <- cur.pos + 1
  done

let expect cur c =
  match peek cur with
  | Some d when d = c -> cur.pos <- cur.pos + 1
  | _ -> error cur (Printf.sprintf "expected %C" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.sub cur.src cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else error cur (Printf.sprintf "expected %s" word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' -> cur.pos <- cur.pos + 1
    | Some '\\' ->
      cur.pos <- cur.pos + 1;
      (match peek cur with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'u' ->
        if cur.pos + 4 >= String.length cur.src then
          error cur "truncated \\u escape";
        (* Exactly four hex digits: [int_of_string] alone would also
           take underscores and signs. *)
        let code = ref 0 in
        for i = cur.pos + 1 to cur.pos + 4 do
          let d =
            match cur.src.[i] with
            | '0' .. '9' as c -> Char.code c - Char.code '0'
            | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
            | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
            | _ -> error cur "bad \\u escape"
          in
          code := (!code lsl 4) lor d
        done;
        let code = !code in
        (* Encode the code point as UTF-8 (surrogate pairs are passed
           through as two separate 3-byte sequences, which is enough for
           telemetry labels). *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
        end;
        cur.pos <- cur.pos + 4
      | _ -> error cur "bad escape");
      cur.pos <- cur.pos + 1;
      go ()
    | Some c ->
      Buffer.add_char buf c;
      cur.pos <- cur.pos + 1;
      go ()
  in
  go ();
  Buffer.contents buf

let non_finite_error cur token =
  error cur
    (Printf.sprintf
       "%s is not valid JSON (non-finite floats are encoded as the strings \
        \"NaN\", \"Infinity\" and \"-Infinity\")"
       token)

(* JSON's number grammar: [-]? (0 | [1-9][0-9]* ) (. [0-9]+)?
   ([eE] [+-]? [0-9]+)?.  Every lexeme it rejects ends in [Malformed]
   here, so [float_of_string] only ever sees one it accepts. *)
let parse_number cur =
  let start = cur.pos in
  let is_float = ref false in
  let advance () = cur.pos <- cur.pos + 1 in
  (match peek cur with Some '-' -> advance () | _ -> ());
  (match peek cur with
  | Some 'I' -> non_finite_error cur "-Infinity"
  | _ -> ());
  let rec more_digits () =
    match peek cur with
    | Some ('0' .. '9') ->
      advance ();
      more_digits ()
    | _ -> ()
  in
  let digits () =
    match peek cur with
    | Some ('0' .. '9') ->
      advance ();
      more_digits ()
    | _ -> error cur "malformed number"
  in
  (match peek cur with
  | Some '0' -> advance ()
  | _ -> digits ());
  (match peek cur with
  | Some '.' ->
    is_float := true;
    advance ();
    digits ()
  | _ -> ());
  (match peek cur with
  | Some ('e' | 'E') ->
    is_float := true;
    advance ();
    (match peek cur with Some ('+' | '-') -> advance () | _ -> ());
    digits ()
  | _ -> ());
  let s = String.sub cur.src start (cur.pos - start) in
  if !is_float then Float (float_of_string s)
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> Float (float_of_string s)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'N' -> non_finite_error cur "NaN"
  | Some 'I' -> non_finite_error cur "Infinity"
  | Some '"' -> String (parse_string cur)
  | Some '[' ->
    cur.pos <- cur.pos + 1;
    skip_ws cur;
    if peek cur = Some ']' then begin
      cur.pos <- cur.pos + 1;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          cur.pos <- cur.pos + 1;
          items (v :: acc)
        | Some ']' ->
          cur.pos <- cur.pos + 1;
          List.rev (v :: acc)
        | _ -> error cur "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '{' ->
    cur.pos <- cur.pos + 1;
    skip_ws cur;
    if peek cur = Some '}' then begin
      cur.pos <- cur.pos + 1;
      Obj []
    end
    else begin
      let field () =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        (k, v)
      in
      let rec fields acc =
        let f = field () in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          cur.pos <- cur.pos + 1;
          fields (f :: acc)
        | Some '}' ->
          cur.pos <- cur.pos + 1;
          List.rev (f :: acc)
        | _ -> error cur "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> error cur (Printf.sprintf "unexpected %C" c)

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then error cur "trailing garbage";
  v

let of_string_opt s = try Some (of_string s) with Malformed _ -> None

(* --- accessors (for consumers decoding summaries) --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | Float f when Float.is_integer f -> Some (int_of_float f) | _ -> None

(* The string spellings close the round-trip for non-finite floats. *)
let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | String "NaN" -> Some Float.nan
  | String "Infinity" -> Some Float.infinity
  | String "-Infinity" -> Some Float.neg_infinity
  | _ -> None
let to_string_value = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
