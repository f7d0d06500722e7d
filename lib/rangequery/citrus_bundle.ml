module Make (R : Hwts_reclaim.Intf.BACKEND) (T : Hwts.Timestamp.S) = struct
  module Labels =
    Citrus_core.Heads
      (R)
      (struct
        module T = T
        module D = Bundle.Waiting (Citrus_core.Cell)

        let name = "bundle-citrus(" ^ T.name ^ ")"
        let reads_heads = false
        let stamp = T.advance
        let label = D.label
        let snap_label = T.read
      end)

  module C = Citrus_core.Make (Labels)

  include C
  include Dstruct.Ordered_set.Ranges (C)

  let version_chain_stats t = Labels.version_chain_stats t.root
end
