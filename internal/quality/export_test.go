package quality

import (
	"pano/internal/frame"
	"pano/internal/geom"
	"pano/internal/jnd"
)

// TilePSPNR is the PSPNR of region r, TilePMSE without a cache.
func TilePSPNR(p *jnd.Profile, orig *frame.Frame, enc *frame.Frame, r geom.Rect, f jnd.Factors) (float64, error) {
	pmse, err := TilePMSE(p, nil, "", orig, enc, r, f)
	if err != nil {
		return 0, err
	}
	return PSPNRFromPMSE(pmse), nil
}
