(* Constant stand-in for the removed on-disk run cache; see the
   interface. *)

let dir () = None
