package manifest

import (
	"encoding/xml"
	"fmt"
	"io"
)

// DecodeMPD parses an MPD written by Encode.
func DecodeMPD(r io.Reader) (*MPD, error) {
	var m MPD
	if err := xml.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest: mpd decode: %w", err)
	}
	return &m, nil
}
