package manifest

import (
	"encoding/xml"
	"fmt"
	"io"

	"pano/internal/codec"
)

// This file projects the Pano manifest onto a standard DASH Media
// Presentation Description (MPD), so off-the-shelf tooling can inspect
// the stream layout. Tiles are expressed with the MPEG-DASH Spatial
// Relationship Description (SRD, ISO/IEC 23009-1 Amd. 2): each tile is
// an AdaptationSet carrying a SupplementalProperty
// "urn:mpeg:dash:srd:2014" whose value encodes the tile rectangle
// within the full panorama. Because Pano's tiles may differ between
// chunks (§7: tile coordinates are per-chunk), every chunk maps to its
// own Period.
//
// Pano-specific data — the per-level reference PSPNR and the
// power-regression lookup table (§6.3) — ride on each Representation as
// a SupplementalProperty with scheme "urn:pano:pspnr-lut:2019" and
// value "ref,a,b", so a Pano-aware client can run its quality
// estimation from a pure-DASH manifest while any other client simply
// ignores the property.

// MPD is the root element.
type MPD struct {
	XMLName              xml.Name    `xml:"MPD"`
	XMLNS                string      `xml:"xmlns,attr"`
	Profiles             string      `xml:"profiles,attr"`
	Type                 string      `xml:"type,attr"`
	MediaPresentationDur string      `xml:"mediaPresentationDuration,attr"`
	MinBufferTime        string      `xml:"minBufferTime,attr"`
	Periods              []MPDPeriod `xml:"Period"`
}

// MPDPeriod is one chunk.
type MPDPeriod struct {
	ID             string             `xml:"id,attr"`
	Start          string             `xml:"start,attr"`
	Duration       string             `xml:"duration,attr"`
	AdaptationSets []MPDAdaptationSet `xml:"AdaptationSet"`
}

// MPDProperty is a DASH descriptor (SRD, Pano LUT, ...).
type MPDProperty struct {
	SchemeIDURI string `xml:"schemeIdUri,attr"`
	Value       string `xml:"value,attr"`
}

// MPDAdaptationSet is one tile of one chunk.
type MPDAdaptationSet struct {
	ID              int                 `xml:"id,attr"`
	ContentType     string              `xml:"contentType,attr"`
	Supplementals   []MPDProperty       `xml:"SupplementalProperty"`
	Representations []MPDRepresentation `xml:"Representation"`
}

// MPDRepresentation is one quality level of one tile.
type MPDRepresentation struct {
	ID            string        `xml:"id,attr"`
	Bandwidth     int           `xml:"bandwidth,attr"`
	Width         int           `xml:"width,attr"`
	Height        int           `xml:"height,attr"`
	BaseURL       string        `xml:"BaseURL"`
	Supplementals []MPDProperty `xml:"SupplementalProperty"`
}

// SRDScheme is the MPEG-DASH spatial relationship scheme id.
const SRDScheme = "urn:mpeg:dash:srd:2014"

// LUTScheme is the Pano quality-lookup property scheme id.
const LUTScheme = "urn:pano:pspnr-lut:2019"

// MPD converts the manifest into a multi-period DASH MPD.
func (v *Video) MPD() *MPD {
	out := &MPD{
		XMLNS:                "urn:mpeg:dash:schema:mpd:2011",
		Profiles:             "urn:mpeg:dash:profile:isoff-main:2011",
		Type:                 "static",
		MediaPresentationDur: xsDuration(v.DurationSec()),
		MinBufferTime:        xsDuration(v.ChunkSec),
	}
	for _, c := range v.Chunks {
		p := MPDPeriod{
			ID:       fmt.Sprintf("chunk-%d", c.Index),
			Start:    xsDuration(float64(c.Index) * v.ChunkSec),
			Duration: xsDuration(v.ChunkSec),
		}
		for ti := range c.Tiles {
			t := &c.Tiles[ti]
			as := MPDAdaptationSet{
				ID:          ti,
				ContentType: "video",
				Supplementals: []MPDProperty{{
					SchemeIDURI: SRDScheme,
					// source_id, object x, y, w, h, total W, H
					Value: fmt.Sprintf("0,%d,%d,%d,%d,%d,%d",
						t.Rect.X0, t.Rect.Y0, t.Rect.W(), t.Rect.H(), v.W, v.H),
				}},
			}
			for l := 0; l < codec.NumLevels; l++ {
				as.Representations = append(as.Representations, MPDRepresentation{
					ID:        fmt.Sprintf("t%d-l%d", ti, l),
					Bandwidth: int(t.Bits[l] / v.ChunkSec),
					Width:     t.Rect.W(),
					Height:    t.Rect.H(),
					BaseURL:   fmt.Sprintf("video/%d/%d/%d.bin", c.Index, ti, l),
					Supplementals: []MPDProperty{{
						SchemeIDURI: LUTScheme,
						Value: fmt.Sprintf("%.4f,%.6f,%.6f",
							t.RefPSPNR[l], t.LUT[l].ACoeff, t.LUT[l].BExp),
					}},
				})
			}
			p.AdaptationSets = append(p.AdaptationSets, as)
		}
		out.Periods = append(out.Periods, p)
	}
	return out
}

// EncodeMPD writes the MPD as indented XML with the standard header.
func (m *MPD) Encode(w io.Writer) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("manifest: mpd encode: %w", err)
	}
	return enc.Flush()
}

// xsDuration renders seconds as an xs:duration ("PT12.5S").
func xsDuration(sec float64) string {
	return fmt.Sprintf("PT%.3fS", sec)
}
