(* Direct OCaml evaluation of the kernels' loop nests — the oracle the
   kernels workload checks every interpreted run against.  Each function
   mirrors one program of [Hpfc_kernels.Apps] statement by statement,
   with the same evaluation order, so results must match bit for bit.
   Arrays are returned row major under their lower-cased names, as in
   [Interp.result.final_arrays]. *)

let flat n a = Array.init (n * n) (fun k -> a.(k / n).(k mod n))

(* Apps.adi_src ~n with scalar t. *)
let adi ~n ~t =
  let u = Array.make_matrix n n 1.0 and rhs = Array.make_matrix n n 0.25 in
  for _ = 1 to t do
    for i = 0 to n - 1 do
      for j = 1 to n - 1 do
        u.(i).(j) <- (u.(i).(j) *. 0.5) +. (u.(i).(j - 1) *. 0.25) +. rhs.(i).(j)
      done
    done;
    for j = 0 to n - 1 do
      for i = 1 to n - 1 do
        u.(i).(j) <- (u.(i).(j) *. 0.5) +. (u.(i - 1).(j) *. 0.25) +. rhs.(i).(j)
      done
    done
  done;
  [ ("u", flat n u); ("rhs", flat n rhs) ]

(* Apps.fft2d_src ~n ~sweeps. *)
let fft2d ~n ~sweeps =
  let x =
    Array.init n (fun i -> Array.init n (fun j -> float_of_int (i + (j * 2))))
  in
  let h = n / 2 in
  for _ = 1 to sweeps do
    for i = 0 to n - 1 do
      for j = 0 to h - 1 do
        x.(i).(j) <- x.(i).(j) +. x.(i).(j + h);
        x.(i).(j + h) <- x.(i).(j) -. (x.(i).(j + h) *. 2.0)
      done
    done;
    for j = 0 to n - 1 do
      for i = 0 to h - 1 do
        x.(i).(j) <- x.(i).(j) +. x.(i + h).(j);
        x.(i + h).(j) <- x.(i).(j) -. (x.(i + h).(j) *. 2.0)
      done
    done
  done;
  x.(0).(0) <- x.(0).(0) +. 1.0;
  [ ("x", flat n x) ]

(* Apps.sar_src ~n with scalar t. *)
let sar ~n ~t =
  let img =
    Array.init n (fun i -> Array.init n (fun j -> float_of_int (i - j)))
  in
  let range () =
    for i = 0 to n - 1 do
      for j = 1 to n - 1 do
        img.(i).(j) <- img.(i).(j) +. (img.(i).(j - 1) *. 0.5)
      done
    done
  and azimuth () =
    for j = 0 to n - 1 do
      for i = 1 to n - 1 do
        img.(i).(j) <- img.(i).(j) +. (img.(i - 1).(j) *. 0.5)
      done
    done
  in
  for _ = 1 to t do
    range ();
    range ();
    azimuth ()
  done;
  img.(0).(0) <- img.(0).(0) +. 1.0;
  [ ("img", flat n img) ]

(* Number of arrays of [expected] missing from, or differing in any
   element from, [got]. *)
let mismatches ~expected ~got =
  List.fold_left
    (fun acc (name, a) ->
      match List.assoc_opt name got with
      | Some b when b = a -> acc
      | Some _ | None -> acc + 1)
    0 expected
