(** Source locations and located errors for the Mini-C front end. *)

type t = { file : string; line : int; col : int }

let dummy = { file = "<none>"; line = 0; col = 0 }

let make ~file ~line ~col = { file; line; col }

let to_string { file; line; col } =
  file ^ ":" ^ string_of_int line ^ ":" ^ string_of_int col

let pp ppf l = Fmt.string ppf (to_string l)

(** Raised by the lexer, parser and type checker on malformed input. *)
exception Error of t * string

let error loc fmt = Fmt.kstr (fun msg -> raise (Error (loc, msg))) fmt

let () =
  Printexc.register_printer (function
    | Error (loc, msg) -> Some (Fmt.str "Mini-C error at %a: %s" pp loc msg)
    | _ -> None)
