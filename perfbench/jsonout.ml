(* Printer for the telemetry library's JSON values: the benchmark reads
   with Psbox_telemetry.Json.parse and writes with this, so both sides
   share one value type. Floats keep all 17 significant digits; values
   that JSON cannot carry (nan, infinities) print as null. *)

open Psbox_telemetry.Json

let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> num x
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kv)
      ^ "}"

(* Accessors for parsed documents; a missing or mistyped field raises
   [Failure] naming the key. *)
let field k j =
  match member k j with Some v -> v | None -> failwith ("missing key " ^ k)

let to_num k j =
  match field k j with Num x -> x | _ -> failwith ("not a number: " ^ k)

let to_str k j =
  match field k j with Str s -> s | _ -> failwith ("not a string: " ^ k)

let to_list k j =
  match field k j with Arr l -> l | _ -> failwith ("not an array: " ^ k)
