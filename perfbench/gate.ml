(* The correctness gate: every check is one attempt, every failed check
   one failure with a message. *)

type t = {
  mutable msgs : string list;
  mutable attempted : int;
  mutable failed : int;
}

let create () = { msgs = []; attempted = 0; failed = 0 }

let check g ok fmt =
  Printf.ksprintf
    (fun msg ->
      g.attempted <- g.attempted + 1;
      if not ok then begin
        g.failed <- g.failed + 1;
        g.msgs <- msg :: g.msgs
      end)
    fmt

let failures g = List.rev g.msgs
