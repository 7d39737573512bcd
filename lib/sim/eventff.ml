(* Constant stand-in for the removed event fast-forward mode; see the
   interface. *)

type mode = Off

let current_mode () = Off
let mode_to_string Off = "off"
