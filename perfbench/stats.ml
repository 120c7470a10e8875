(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [q] in [0, 1]; nan on no samples. *)
let percentile q xs =
  let a = sorted xs in
  let len = Array.length a in
  if len = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int len)) in
    a.(min (len - 1) (max 0 (rank - 1)))

let median xs =
  let a = sorted xs in
  let len = Array.length a in
  if len = 0 then Float.nan
  else if len mod 2 = 1 then a.(len / 2)
  else (a.((len / 2) - 1) +. a.(len / 2)) /. 2.0

let geomean xs =
  match xs with
  | [] -> Float.nan
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
