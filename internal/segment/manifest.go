package segment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// manifestName is the store's commit point: the list of live segment
// files plus the replay watermark, rewritten atomically (tmp +
// rename + dir sync) after every flush, compaction, or retention
// drop. A segment file not listed here does not exist as far as
// recovery is concerned — which is exactly what makes an interrupted
// flush or compaction harmless.
const manifestName = "MANIFEST"

// manifest is the JSON document in manifestName.
type manifest struct {
	Version int `json:"version"`
	// NextSeg numbers the next segment file.
	NextSeg uint64 `json:"nextSeg"`
	// FlushedOp is the replay watermark: every op <= FlushedOp is
	// folded into a listed segment, so recovery skips it.
	FlushedOp uint64 `json:"flushedOp"`
	// Segments lists live segment file names, oldest first.
	Segments []string `json:"segments"`
}

const manifestVersion = 1

// readManifest loads dir's manifest; a missing file is an empty
// store.
func readManifest(dir string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return manifest{Version: manifestVersion}, nil
	}
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("segment: manifest %s: %w (%v)", dir, ErrCorrupt, err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("segment: manifest %s version %d: %w", dir, m.Version, ErrCorrupt)
	}
	return m, nil
}

// writeManifest atomically replaces dir's manifest.
func writeManifest(dir string, m manifest) error {
	m.Version = manifestVersion
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return syncDir(dir)
}
