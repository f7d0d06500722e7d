module Make (T : Hwts.Timestamp.S) = struct
  module C =
    Lazy_core.Make
      (struct
        let name = "bundle-skiplist"
        let max_level = Dstruct.Skip_level.max_level
      end)
      (T)

  include C
  include Dstruct.Ordered_set.Ranges (C)
end
