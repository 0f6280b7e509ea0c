// On-disk layout for sharded indexes: a directory holding one ordinary
// v4 index file per shard plus a small SHARDS.json manifest describing
// the partitioning. Shard files are complete, self-contained index
// files — each opens through the normal OpenStorage path — so every
// existing tool that reads one index file reads one shard unchanged. A save builds the whole directory under a
// sibling temp name, fsyncs it, and renames it into place, so a crash
// mid-save never leaves a manifest over shards it does not describe.

package pathindex

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/graph"
)

// ShardManifestName is the manifest file inside a sharded index
// directory.
const ShardManifestName = "SHARDS.json"

// shardManifestVersion guards manifest decoding.
const shardManifestVersion = 1

// errBadManifest is wrapped by every error OpenSharded returns for a
// manifest that does not describe a layout SaveSharded could have
// written.
var errBadManifest = errors.New("pathindex: shard manifest")

// shardManifest is the JSON layout descriptor of a sharded index
// directory.
type shardManifest struct {
	Version     int      `json:"version"`
	K           int      `json:"k"`
	Shards      int      `json:"shards"`
	Partitioner string   `json:"partitioner"` // "hash"
	PathsKCount int      `json:"paths_k_count"`
	Files       []string `json:"files"`
}

// manifestPartitioner decodes a manifest's partitioner field: "hash",
// the one partitioner with an on-disk encoding.
func manifestPartitioner(m *shardManifest) (Partitioner, error) {
	if m.Partitioner != "hash" {
		return nil, fmt.Errorf("%w has unknown partitioner %q", errBadManifest, m.Partitioner)
	}
	return NewHashPartitioner(m.Shards), nil
}

// IsShardedPath reports whether path is a sharded index directory (a
// directory containing a shard manifest).
func IsShardedPath(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, ShardManifestName))
	return err == nil
}

// shardFileName names shard i's index file.
func shardFileName(i int) string { return fmt.Sprintf("shard-%04d.pix", i) }

// SaveSharded writes the sharded index as a directory: one v4 file per
// shard plus the manifest, every file fsync'd. The directory is built
// under dir+".tmp" and renamed to dir, so dir only ever names a complete
// layout; a layout already at dir is moved aside first and removed after
// (a crash between the two renames leaves no dir, never a torn one). The
// in-memory storage is unchanged.
func (s *ShardedStorage) SaveSharded(dir string) error {
	if _, ok := s.part.(HashPartitioner); !ok {
		return fmt.Errorf("pathindex: partitioner %T has no on-disk encoding", s.part)
	}
	m := shardManifest{
		Version:     shardManifestVersion,
		K:           s.k,
		Shards:      len(s.parts),
		Partitioner: "hash",
		PathsKCount: s.stats.PathsKCount,
	}
	tmp, old := dir+".tmp", dir+".old"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp) // a no-op once renamed
	for i, p := range s.parts {
		name := shardFileName(i)
		ix, err := Materialize(p)
		if err == nil {
			err = ix.saveSync(filepath.Join(tmp, name))
		}
		if err != nil {
			return fmt.Errorf("pathindex: save shard %d: %w", i, err)
		}
		m.Files = append(m.Files, name)
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	err = createSync(filepath.Join(tmp, ShardManifestName), func(f *os.File) error {
		_, err := f.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		return err
	}
	if err := syncDir(tmp); err != nil {
		return err
	}
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	if err := os.Rename(dir, old); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return err
	}
	return os.RemoveAll(old)
}

// syncDir fsyncs a directory, making the names inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SaveAtomic persists a folded base — Fold.Result — at path so that a
// crash leaves either nothing or the complete artifact under that name:
// one v4 file for an unsharded base (SaveAtomic), the sharded
// directory layout for a sharded one (SaveSharded). Open reads either
// back.
func SaveAtomic(s Storage, path string) error {
	if ss, ok := s.(*ShardedStorage); ok {
		return ss.SaveSharded(path)
	}
	ix, err := Materialize(s)
	if err != nil {
		return err
	}
	return ix.SaveAtomic(path)
}

// Open opens a saved index for serving, whatever its layout: a sharded
// directory (IsShardedPath) through OpenSharded, a single file through
// OpenStorage.
func Open(path string, g *graph.Graph) (Storage, error) {
	if IsShardedPath(path) {
		return OpenSharded(path, g)
	}
	return OpenStorage(path, g)
}

// OpenSharded opens a sharded index directory written by SaveSharded.
// Each shard file opens through OpenStorage (so shards decode blocks
// lazily and pin/close individually); the partitioner and the global
// |paths_k| come from the manifest, which is checked against what
// SaveSharded writes: shard i in the file shardFileName(i), k equal to
// the shards' k, and a non-negative |paths_k|.
func OpenSharded(dir string, g *graph.Graph) (*ShardedStorage, error) {
	data, err := os.ReadFile(filepath.Join(dir, ShardManifestName))
	if err != nil {
		return nil, err
	}
	var m shardManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %w", errBadManifest, err)
	}
	if m.Version != shardManifestVersion {
		return nil, fmt.Errorf("%w version %d not supported", errBadManifest, m.Version)
	}
	if m.Shards != len(m.Files) || m.Shards < 1 {
		return nil, fmt.Errorf("%w lists %d files for %d shards", errBadManifest, len(m.Files), m.Shards)
	}
	// Any other name could reach outside dir or load one shard twice.
	for i, name := range m.Files {
		if name != shardFileName(i) {
			return nil, fmt.Errorf("%w names shard %d %q, want %q", errBadManifest, i, name, shardFileName(i))
		}
	}
	if m.PathsKCount < 0 {
		return nil, fmt.Errorf("%w has paths_k_count %d", errBadManifest, m.PathsKCount)
	}
	part, err := manifestPartitioner(&m)
	if err != nil {
		return nil, err
	}
	parts := make([]Storage, 0, m.Shards)
	closeAll := func() {
		for _, p := range parts {
			if c, ok := p.(interface{ Close() error }); ok {
				c.Close()
			}
		}
	}
	for i, name := range m.Files {
		p, err := OpenStorage(filepath.Join(dir, name), g)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("pathindex: open shard %d: %w", i, err)
		}
		parts = append(parts, p)
	}
	s, err := NewSharded(parts, part)
	if err == nil && s.K() != m.K {
		err = fmt.Errorf("%w has k=%d, its shards k=%d", errBadManifest, m.K, s.K())
	}
	if err != nil {
		closeAll()
		return nil, err
	}
	s.stats.PathsKCount = m.PathsKCount
	return s, nil
}
