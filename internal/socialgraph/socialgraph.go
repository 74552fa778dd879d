// Package socialgraph implements the data layer of the DeathStarBench
// Social Network application the paper evaluates (§IV-B): a follow graph,
// post storage, and materialized per-user home timelines, supporting the
// compose-post and read-user-timeline operations the paper's client issues.
//
// The paper initializes the social graph from the "Reed98 Facebook
// Networks" dataset (962 vertices, ~18.8k edges); GenerateReed98Like
// synthesizes a graph with the same scale and a comparable skewed degree
// distribution, since the original dataset is not redistributable here.
package socialgraph

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/rng"
)

// Common errors.
var (
	ErrNoSuchUser = errors.New("socialgraph: no such user")
	ErrNoSuchPost = errors.New("socialgraph: no such post")
)

// UserID identifies a user.
type UserID int

// PostID identifies a post.
type PostID int64

// Post is one stored post.
type Post struct {
	ID        PostID
	Author    UserID
	Text      string
	Timestamp int64 // virtual nanoseconds
}

// Graph is the social-network data store. It is safe for concurrent use.
type Graph struct {
	mu sync.RWMutex

	followers map[UserID][]UserID // who follows u
	following map[UserID][]UserID // whom u follows
	edges     int
	posts     map[PostID]Post
	nextPost  PostID

	// userTimeline holds a user's own posts, newest first.
	userTimeline map[UserID][]PostID
	// homeTimeline holds the posts of everyone a user follows (fan-out on
	// write, as the real Social Network's write path materializes
	// home timelines into Redis), newest first.
	homeTimeline map[UserID][]PostID

	numUsers int
}

// TimelineCap bounds materialized timelines, like the benchmark's Redis
// timeline trimming.
const TimelineCap = 1000

// New creates a graph with n users (IDs 0..n−1) and no edges.
func New(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("socialgraph: need ≥1 user, got %d", n)
	}
	return &Graph{
		followers:    make(map[UserID][]UserID),
		following:    make(map[UserID][]UserID),
		posts:        make(map[PostID]Post),
		userTimeline: make(map[UserID][]PostID),
		homeTimeline: make(map[UserID][]PostID),
		numUsers:     n,
		nextPost:     1,
	}, nil
}

// NumUsers returns the number of registered users.
func (g *Graph) NumUsers() int { return g.numUsers }

func (g *Graph) checkUser(u UserID) error {
	if u < 0 || int(u) >= g.numUsers {
		return fmt.Errorf("%w: %d", ErrNoSuchUser, u)
	}
	return nil
}

// Follow adds a directed follow edge (follower → followee). Duplicate
// edges and self-follows are ignored.
func (g *Graph) Follow(follower, followee UserID) error {
	if err := g.checkUser(follower); err != nil {
		return err
	}
	if err := g.checkUser(followee); err != nil {
		return err
	}
	if follower == followee {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, f := range g.following[follower] {
		if f == followee {
			return nil
		}
	}
	g.following[follower] = append(g.following[follower], followee)
	g.followers[followee] = append(g.followers[followee], follower)
	g.edges++
	return nil
}

// Followers returns who follows u.
func (g *Graph) Followers(u UserID) ([]UserID, error) {
	if err := g.checkUser(u); err != nil {
		return nil, err
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]UserID(nil), g.followers[u]...), nil
}

// Following returns whom u follows.
func (g *Graph) Following(u UserID) ([]UserID, error) {
	if err := g.checkUser(u); err != nil {
		return nil, err
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]UserID(nil), g.following[u]...), nil
}

// NumEdges returns the number of follow edges.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.edges
}

// ComposePost stores a post by author and fans it out to the author's
// followers' home timelines. It returns the new post's ID and the fan-out
// size (work proportional to follower count — the service model uses this
// to scale compose latency).
func (g *Graph) ComposePost(author UserID, text string, now int64) (PostID, int, error) {
	if err := g.checkUser(author); err != nil {
		return 0, 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	id := g.nextPost
	g.nextPost++
	g.posts[id] = Post{ID: id, Author: author, Text: text, Timestamp: now}

	g.userTimeline[author] = prependCapped(g.userTimeline[author], id)
	fanout := g.followers[author]
	for _, f := range fanout {
		g.homeTimeline[f] = prependCapped(g.homeTimeline[f], id)
	}
	return id, len(fanout), nil
}

func prependCapped(tl []PostID, id PostID) []PostID {
	tl = append(tl, 0)
	copy(tl[1:], tl)
	tl[0] = id
	if len(tl) > TimelineCap {
		tl = tl[:TimelineCap]
	}
	return tl
}

// ReadUserTimeline returns up to limit of u's own posts, newest first —
// the read-user-timeline request type the paper's client issues
// exclusively (§IV-B).
func (g *Graph) ReadUserTimeline(u UserID, limit int) ([]Post, error) {
	if err := g.checkUser(u); err != nil {
		return nil, err
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.materialize(g.userTimeline[u], limit), nil
}

// ReadHomeTimeline returns up to limit posts from u's home timeline.
func (g *Graph) ReadHomeTimeline(u UserID, limit int) ([]Post, error) {
	if err := g.checkUser(u); err != nil {
		return nil, err
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.materialize(g.homeTimeline[u], limit), nil
}

func (g *Graph) materialize(ids []PostID, limit int) []Post {
	if limit <= 0 || limit > len(ids) {
		limit = len(ids)
	}
	out := make([]Post, 0, limit)
	for _, id := range ids[:limit] {
		if p, ok := g.posts[id]; ok {
			out = append(out, p)
		}
	}
	return out
}

// GetPost returns one post by ID.
func (g *Graph) GetPost(id PostID) (Post, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	p, ok := g.posts[id]
	if !ok {
		return Post{}, fmt.Errorf("%w: %d", ErrNoSuchPost, id)
	}
	return p, nil
}

// NumPosts returns the number of stored posts.
func (g *Graph) NumPosts() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.posts)
}

// DegreeStats summarizes the follower-degree distribution.
type DegreeStats struct {
	MaxDegree  int
	MeanDegree float64
}

// Degrees returns follower-degree statistics.
func (g *Graph) Degrees() DegreeStats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var ds DegreeStats
	total := 0
	for _, f := range g.followers {
		d := len(f)
		total += d
		if d > ds.MaxDegree {
			ds.MaxDegree = d
		}
	}
	if g.numUsers > 0 {
		ds.MeanDegree = float64(total) / float64(g.numUsers)
	}
	return ds
}

// GenerateReed98Like builds a synthetic graph with the scale of the Reed98
// Facebook network (962 users, ≈18.8k directed edges) and a skewed degree
// distribution, using preferential attachment so a few users have many
// followers — the property that makes compose-post fan-out variable.
func GenerateReed98Like(seed uint64) (*Graph, error) {
	const users = 962
	const targetEdges = 18812
	g, err := New(users)
	if err != nil {
		return nil, err
	}
	stream := rng.NewLabeled(seed, "reed98-graph")
	// Preferential attachment over a random backbone: each user follows
	// ~targetEdges/users others, biased toward already-popular users via a
	// Zipf rank draw over a shuffled popularity order.
	perm := make([]UserID, users)
	for i := range perm {
		perm[i] = UserID(i)
	}
	for i := users - 1; i > 0; i-- {
		j := stream.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	zipf := rng.NewZipf(users, 0.8)
	edges := 0
	for edges < targetEdges {
		follower := UserID(stream.Intn(users))
		followee := perm[zipf.Draw(stream)]
		if follower == followee {
			continue
		}
		before := g.NumEdges()
		if err := g.Follow(follower, followee); err != nil {
			return nil, err
		}
		if g.NumEdges() > before {
			edges++
		}
	}
	return g, nil
}

// SeedPosts fills the database with posts before a run, as the paper does
// ("before each run we fill the database of the application with posts
// using compose-post queries"). Every user receives at least minPerUser
// posts on their user timeline.
func (g *Graph) SeedPosts(minPerUser int, stream *rng.Stream, now int64) error {
	for u := 0; u < g.numUsers; u++ {
		for p := 0; p < minPerUser; p++ {
			text := fmt.Sprintf("seed post %d by user %d", p, u)
			if _, _, err := g.ComposePost(UserID(u), text, now); err != nil {
				return err
			}
		}
	}
	return nil
}

// TopUsersByFollowers returns the n most-followed users, for examples and
// diagnostics.
func (g *Graph) TopUsersByFollowers(n int) []UserID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := make([]UserID, 0, len(g.followers))
	for u := range g.followers {
		ids = append(ids, u)
	}
	sort.Slice(ids, func(a, b int) bool {
		la, lb := len(g.followers[ids[a]]), len(g.followers[ids[b]])
		if la != lb {
			return la > lb
		}
		return ids[a] < ids[b]
	})
	if n > len(ids) {
		n = len(ids)
	}
	return ids[:n]
}
