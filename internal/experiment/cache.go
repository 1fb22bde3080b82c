package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// ResultsVersion names the current generation of simulated behavior. It is a
// component of every result-cache key, so cached rows produced by an older
// generation can never satisfy a newer one. Bump it in any PR that
// intentionally changes simulation output (new event orderings, retuned
// defaults, metric definition changes); speed-only work that keeps results
// bit-identical — the bench gate's event-count check is the arbiter — must
// leave it alone, so warm caches survive performance PRs.
const ResultsVersion = "ecnsim-results/v3"

// CacheKey derives a content address from an ordered list of identity parts
// (version, scenario name, canonicalized configuration, ...). Parts are
// length-framed before hashing, so no two distinct part lists collide by
// concatenation.
func CacheKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is a content-addressed result store on the local filesystem: one
// JSON file per key, written atomically, safe for concurrent use within a
// process. It never invalidates by time — keys embed everything that
// determines the value (ResultsVersion, scenario, canonical configuration,
// seed), so an entry is either exactly right or never looked up again.
type Cache struct {
	dir string

	mu     sync.Mutex
	hits   int
	misses int
}

// OpenCache creates (if needed) and opens a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("experiment: OpenCache with empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: opening cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// DefaultCacheDir returns the conventional per-user cache location
// (<user cache dir>/ecnsim, falling back to the system temp directory when
// the platform reports no user cache dir).
func DefaultCacheDir() string {
	if base, err := os.UserCacheDir(); err == nil {
		return filepath.Join(base, "ecnsim")
	}
	return filepath.Join(os.TempDir(), "ecnsim-cache")
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path validates a key (must be a CacheKey-shaped hex digest; anything else
// could escape the cache directory) and returns its file path.
func (c *Cache) path(key string) (string, error) {
	if len(key) != sha256.Size*2 {
		return "", fmt.Errorf("experiment: cache key %q is not a %d-char digest", key, sha256.Size*2)
	}
	if _, err := hex.DecodeString(key); err != nil {
		return "", fmt.Errorf("experiment: cache key %q is not hex", key)
	}
	return filepath.Join(c.dir, key+".json"), nil
}

// Get loads the value stored under key into v. The second return reports
// whether the key was present; a corrupt entry is treated as an error, not a
// miss, so a truncated write surfaces instead of silently re-simulating.
func (c *Cache) Get(key string, v any) (bool, error) {
	path, err := c.path(key)
	if err != nil {
		return false, err
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		c.count(false)
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("experiment: cache read: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("experiment: cache entry %s is corrupt: %w", key[:12], err)
	}
	c.count(true)
	return true, nil
}

// Put stores v under key. The write is atomic (temp file + rename), so a
// concurrent reader sees either the complete entry or none.
func (c *Cache) Put(key string, v any) error {
	path, err := c.path(key)
	if err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("experiment: cache encode: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return fmt.Errorf("experiment: cache write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("experiment: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("experiment: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("experiment: cache write: %w", err)
	}
	return nil
}

func (c *Cache) count(hit bool) {
	c.mu.Lock()
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
}

// Stats reports how many Gets hit and missed since the cache was opened.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
