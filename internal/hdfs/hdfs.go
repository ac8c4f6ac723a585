// Package hdfs simulates the Hadoop Distributed File System the paper's
// ecosystem integrates with (§IV-C, Figure 4): a namenode tracking files,
// blocks and replica placement, datanodes storing block payloads, block
// reports, re-replication after datanode loss, and the block-location API
// MapReduce uses for locality-aware splits. It also backs the HDFS
// variants of the shared log and the cold storage tier.
package hdfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors surfaced by the filesystem.
var (
	ErrNotFound    = errors.New("hdfs: file not found")
	ErrExists      = errors.New("hdfs: file exists")
	ErrNoDataNodes = errors.New("hdfs: not enough live datanodes")
	ErrBlockLost   = errors.New("hdfs: block unavailable on all replicas")
)

// BlockID identifies one block.
type BlockID uint64

// DataNode stores block payloads.
type DataNode struct {
	ID    int
	mu    sync.RWMutex
	data  map[BlockID][]byte
	alive bool
}

func newDataNode(id int) *DataNode {
	return &DataNode{ID: id, data: map[BlockID][]byte{}, alive: true}
}

// Alive reports node health.
func (d *DataNode) Alive() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.alive
}

func (d *DataNode) put(b BlockID, data []byte) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.alive {
		return false
	}
	d.data[b] = data
	return true
}

func (d *DataNode) get(b BlockID) ([]byte, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.alive {
		return nil, false
	}
	v, ok := d.data[b]
	return v, ok
}

// fileMeta is the namenode's record of one file.
type fileMeta struct {
	blocks []BlockID
	size   int
}

// FS is the filesystem: namenode state plus its datanodes.
type FS struct {
	mu          sync.RWMutex
	blockSize   int
	replication int
	nodes       []*DataNode
	files       map[string]*fileMeta
	placement   map[BlockID][]int // block -> datanode IDs
	nextBlock   BlockID
	nextNode    int // round-robin placement cursor
}

// New creates a filesystem with the given datanode count, block size and
// replication factor.
func New(datanodes, blockSize, replication int) *FS {
	fs := &FS{
		blockSize:   blockSize,
		replication: replication,
		files:       map[string]*fileMeta{},
		placement:   map[BlockID][]int{},
	}
	for i := 0; i < datanodes; i++ {
		fs.nodes = append(fs.nodes, newDataNode(i))
	}
	return fs
}

// WriteFile creates a file with the given content (no appends — HDFS
// semantics: write once).
func (fs *FS) WriteFile(path string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; ok {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	meta := &fileMeta{size: len(data)}
	for off := 0; off < len(data) || off == 0; off += fs.blockSize {
		end := off + fs.blockSize
		if end > len(data) {
			end = len(data)
		}
		chunk := append([]byte(nil), data[off:end]...)
		id := fs.nextBlock
		fs.nextBlock++
		placed, err := fs.placeBlock(id, chunk)
		if err != nil {
			return err
		}
		fs.placement[id] = placed
		meta.blocks = append(meta.blocks, id)
		if end == len(data) {
			break
		}
	}
	fs.files[path] = meta
	return nil
}

// placeBlock stores a block on `replication` distinct live nodes. Caller
// holds fs.mu.
func (fs *FS) placeBlock(id BlockID, data []byte) ([]int, error) {
	var placed []int
	tried := 0
	for len(placed) < fs.replication && tried < 2*len(fs.nodes) {
		n := fs.nodes[fs.nextNode%len(fs.nodes)]
		fs.nextNode++
		tried++
		already := false
		for _, p := range placed {
			if p == n.ID {
				already = true
			}
		}
		if already || !n.put(id, data) {
			continue
		}
		placed = append(placed, n.ID)
	}
	if len(placed) == 0 {
		return nil, ErrNoDataNodes
	}
	return placed, nil
}

// ReadFile reassembles a file, falling back across replicas.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.mu.RLock()
	meta, ok := fs.files[path]
	if !ok {
		fs.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	blocks := append([]BlockID(nil), meta.blocks...)
	fs.mu.RUnlock()

	var out []byte
	for _, b := range blocks {
		data, err := fs.readBlock(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, data...)
	}
	return out, nil
}

// readBlock fetches one block from any live replica.
func (fs *FS) readBlock(b BlockID) ([]byte, error) {
	fs.mu.RLock()
	placed := append([]int(nil), fs.placement[b]...)
	fs.mu.RUnlock()
	for _, nid := range placed {
		if data, ok := fs.nodes[nid].get(b); ok {
			return data, nil
		}
	}
	return nil, ErrBlockLost
}

// Delete removes a file and its blocks.
func (fs *FS) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	for _, b := range meta.blocks {
		for _, nid := range fs.placement[b] {
			fs.nodes[nid].mu.Lock()
			delete(fs.nodes[nid].data, b)
			fs.nodes[nid].mu.Unlock()
		}
		delete(fs.placement, b)
	}
	delete(fs.files, path)
	return nil
}

// Exists reports whether a file exists.
func (fs *FS) Exists(path string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[path]
	return ok
}

// Size returns a file's size.
func (fs *FS) Size(path string) (int, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	meta, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return meta.size, nil
}

// List returns paths with the given prefix, sorted.
func (fs *FS) List(prefix string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Split is one MapReduce input split: a block with its hosting nodes.
type Split struct {
	Path   string
	Block  BlockID
	Index  int
	Hosts  []int
	Length int
}

// Splits returns the block-aligned input splits of a file.
func (fs *FS) Splits(path string) ([]Split, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	meta, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	var out []Split
	for i, b := range meta.blocks {
		length := fs.blockSize
		if i == len(meta.blocks)-1 {
			length = meta.size - i*fs.blockSize
		}
		out = append(out, Split{Path: path, Block: b, Index: i, Hosts: append([]int(nil), fs.placement[b]...), Length: length})
	}
	return out, nil
}

// ReadSplit fetches one split's payload.
func (fs *FS) ReadSplit(s Split) ([]byte, error) { return fs.readBlock(s.Block) }

// KillDataNode fails a datanode; its blocks survive on replicas.
func (fs *FS) KillDataNode(id int) {
	fs.nodes[id].mu.Lock()
	fs.nodes[id].alive = false
	fs.nodes[id].mu.Unlock()
}

// LiveDataNodes counts healthy datanodes.
func (fs *FS) LiveDataNodes() int {
	n := 0
	for _, d := range fs.nodes {
		if d.Alive() {
			n++
		}
	}
	return n
}

// ReReplicate restores the replication factor of under-replicated blocks
// (the namenode's response to block reports after failures). Returns how
// many block copies it created.
func (fs *FS) ReReplicate() (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	created := 0
	for b, placed := range fs.placement {
		var live []int
		var data []byte
		for _, nid := range placed {
			if d, ok := fs.nodes[nid].get(b); ok {
				live = append(live, nid)
				data = d
			}
		}
		if len(live) == 0 {
			return created, fmt.Errorf("%w: block %d", ErrBlockLost, b)
		}
		for len(live) < fs.replication {
			target := -1
			for i := 0; i < len(fs.nodes); i++ {
				cand := fs.nodes[fs.nextNode%len(fs.nodes)]
				fs.nextNode++
				onIt := false
				for _, l := range live {
					if l == cand.ID {
						onIt = true
					}
				}
				if !onIt && cand.Alive() {
					target = cand.ID
					break
				}
			}
			if target < 0 {
				break // fewer live nodes than replication factor
			}
			fs.nodes[target].put(b, data)
			live = append(live, target)
			created++
		}
		fs.placement[b] = live
	}
	return created, nil
}
