package dist

// TransferVolume computes the communication volume a route from src
// to dst generates: the total number of matrix elements that
// change ranks and the number of point-to-point messages carrying
// them. Self-intersections (data already on its destination rank) are
// excluded, matching the runtime — NeighborAlltoallv copies the self
// block locally and sends only non-empty buffers, so neither appears
// in the communication statistics. This is the cost-model side of the
// divergence sentinel: it predicts exactly the bytes the redistribute
// stages will report.
func TransferVolume(src, dst Layout) (elems, msgs int64) {
	return TransferVolumeOp(src, dst, false)
}

// TransferVolumeOp is TransferVolume for a route with a transpose
// folded in: dst describes the layout of the transpose of
// the source matrix.
func TransferVolumeOp(src, dst Layout, trans bool) (elems, msgs int64) {
	p := src.Procs()
	if dst.Procs() < p {
		p = dst.Procs()
	}
	for s := 0; s < p; s++ {
		srcPieces := src.Pieces(s)
		if len(srcPieces) == 0 {
			continue
		}
		for d := 0; d < p; d++ {
			if d == s {
				continue
			}
			var n int64
			for _, sp := range srcPieces {
				spD := pieceInDstCoords(sp, trans)
				for _, dp := range dst.Pieces(d) {
					if _, _, rr, cc, ok := intersect(spD, dp); ok {
						n += int64(rr) * int64(cc)
					}
				}
			}
			if n > 0 {
				elems += n
				msgs++
			}
		}
	}
	return elems, msgs
}
