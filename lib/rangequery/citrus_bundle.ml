module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module B = Bundle.Make (T)

  module Labels =
    Citrus_core.Heads
      (R)
      (struct
        module T = T

        let name = "bundle-citrus(" ^ T.name ^ ")"
        let reads_heads = false
        let fresh = B.pending
        let stamp = T.advance
        let label = B.label
        let value_at = B.value_at
        let snap_label = T.read
        let prune_from = B.prune_from
      end)

  module C = Citrus_core.Make (Labels)

  include C
  include Dstruct.Ordered_set.Ranges (C)
end
