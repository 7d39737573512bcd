type t = { cells : int array; mutable head : int; mutable len : int }

let create ~max_outstanding =
  { cells = Array.make (max 1 max_outstanding) 0; head = 0; len = 0 }

let is_full t = t.len = Array.length t.cells

let oldest t =
  if t.len = 0 then invalid_arg "Window.oldest: empty";
  t.cells.(t.head)

let pop t =
  let v = oldest t in
  let head = t.head + 1 in
  t.head <- (if head = Array.length t.cells then 0 else head);
  t.len <- t.len - 1;
  v

let push t v =
  if is_full t then invalid_arg "Window.push: full";
  let cap = Array.length t.cells in
  let tail = t.head + t.len in
  t.cells.(if tail >= cap then tail - cap else tail) <- v;
  t.len <- t.len + 1
