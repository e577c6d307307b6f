include Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = Int.equal a c && Int.equal b d

  (* The table picks a bucket by the low bits of the hash, and the low
     bits of a product depend only on the low bits of its factors; the
     final shift folds the high bits, where both ints are mixed, back
     in. *)
  let hash (src, dst) =
    let h = ((src * 0x9E3779B97F4A7C1) + dst) * 0x2545F4914F6CDD1 in
    (h lxor (h lsr 29)) land max_int
end)
