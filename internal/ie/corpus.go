package ie

import (
	"fmt"
	"math/rand"
)

// Token is one word of a document together with its gold label.
type Token struct {
	Str  string
	Gold Label
}

// Doc is a tokenized document.
type Doc struct {
	ID     int
	Tokens []Token
}

// Corpus is a collection of documents.
type Corpus struct {
	Docs      []Doc
	NumTokens int
}

// Lexicons used by the synthetic generator. Several strings are
// deliberately ambiguous across entity types ("Boston" is a location and
// an organization prefix, "Jordan" a person and a location), recreating
// the ambiguity that motivates the paper's Query 4.
var (
	firstNames = []string{
		"Hillary", "Bill", "Manny", "Theo", "Pedro", "David", "Maria",
		"John", "Laura", "Kevin", "Eli", "Jason", "Sarah", "Peter",
	}
	lastNames = []string{
		"Clinton", "Smith", "Ramirez", "Epstein", "Martinez", "Ortiz",
		"Johnson", "Beltran", "Jordan", "Chen", "Garcia", "Miller",
	}
	orgRoots = []string{
		"IBM", "Google", "Lockheed", "Raytheon", "Fidelity", "Verizon",
		"Boston", "Akamai", "Gillette", "Staples", "Biogen",
	}
	orgSuffixes = []string{"Corp", "Inc", "Partners", "Labs"}
	locations   = []string{
		"Boston", "Amherst", "Cambridge", "Springfield", "Worcester",
		"Jordan", "York", "Quincy", "Lowell",
	}
	miscNames = []string{
		"Olympics", "Grammys", "Superbowl", "Internet", "Frisbee",
	}
	fillers = []string{
		"the", "a", "said", "that", "spokesman", "for", "yesterday",
		"announced", "in", "of", "and", "reported", "has", "visited",
		"with", "during", "after", "meeting", "officials", "on", "plan",
		"new", "market", "shares", "game", "season", "city", "won",
	}
)

// GenConfig parameterizes the synthetic corpus generator.
type GenConfig struct {
	// NumTokens is the approximate total token count to generate.
	NumTokens int
	// TokensPerDoc is the approximate document length (the paper's NYT
	// sample averages ~5600 tokens per article across 1788 articles; the
	// default here is smaller to keep many documents at small scales).
	TokensPerDoc int
	// EntityRate is the probability that the next emission is an entity
	// mention rather than a filler token.
	EntityRate float64
	// RepeatRate is the probability that an entity mention repeats one of
	// the document's focus entities instead of drawing a fresh one. High
	// repeat rates create many identical strings per document, which is
	// what the skip-chain factors exploit.
	RepeatRate float64
	// LexiconSize expands each name lexicon to roughly this many distinct
	// strings by synthesizing names, so that — as in the paper's NYT
	// corpus — most entity strings are rare. Zero scales with NumTokens.
	LexiconSize int
	// Seed makes generation reproducible.
	Seed int64
}

// DefaultGenConfig returns the configuration used by the experiments.
func DefaultGenConfig(numTokens int, seed int64) GenConfig {
	return GenConfig{
		NumTokens:    numTokens,
		TokensPerDoc: 250,
		EntityRate:   0.18,
		RepeatRate:   0.45,
		Seed:         seed,
	}
}

type mention struct {
	strs   []string
	labels []Label
}

// lexicons holds the (possibly expanded) name inventories used during
// generation.
type lexicons struct {
	firsts, lasts, orgs, locs []string
}

var nameSyllables = []string{
	"ka", "ber", "lin", "mo", "ta", "rez", "sha", "vin", "dor", "mel",
	"qui", "nor", "bas", "tel", "gra", "zan", "pol", "fer", "wick", "ham",
}

// synthNames deterministically synthesizes n capitalized names.
func synthNames(rng *rand.Rand, n int) []string {
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for len(out) < n {
		k := 2 + rng.Intn(2)
		name := ""
		for i := 0; i < k; i++ {
			name += nameSyllables[rng.Intn(len(nameSyllables))]
		}
		name = string(name[0]-'a'+'A') + name[1:]
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

func buildLexicons(rng *rand.Rand, cfg GenConfig) lexicons {
	size := cfg.LexiconSize
	if size == 0 {
		// Roughly one distinct name per 60 tokens, as in news text where
		// most names occur in only a few articles.
		size = cfg.NumTokens / 60
		if size < 30 {
			size = 30
		}
		if size > 20000 {
			size = 20000
		}
	}
	lx := lexicons{
		firsts: append([]string{}, firstNames...),
		lasts:  append([]string{}, lastNames...),
		orgs:   append([]string{}, orgRoots...),
		locs:   append([]string{}, locations...),
	}
	grow := func(base []string, n int) []string {
		if n > len(base) {
			return append(base, synthNames(rng, n-len(base))...)
		}
		return base
	}
	lx.firsts = grow(lx.firsts, size/2)
	lx.lasts = grow(lx.lasts, size)
	lx.orgs = grow(lx.orgs, size/2)
	lx.locs = grow(lx.locs, size/4)
	return lx
}

// Generate produces a synthetic labeled corpus. The process per document:
// draw a small set of focus entities; emit filler tokens and mentions,
// where a mention is either a focus entity (repeated string → skip edges)
// or a fresh draw from the lexicons. Multi-token mentions exercise the
// BIO scheme.
func Generate(cfg GenConfig) (*Corpus, error) {
	if cfg.NumTokens <= 0 {
		return nil, fmt.Errorf("ie: NumTokens must be positive, got %d", cfg.NumTokens)
	}
	if cfg.TokensPerDoc <= 0 {
		cfg.TokensPerDoc = 250
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	lx := buildLexicons(rng, cfg)
	c := &Corpus{}
	for c.NumTokens < cfg.NumTokens {
		doc := genDoc(rng, len(c.Docs), cfg, lx)
		c.NumTokens += len(doc.Tokens)
		c.Docs = append(c.Docs, doc)
	}
	return c, nil
}

func genDoc(rng *rand.Rand, id int, cfg GenConfig, lx lexicons) Doc {
	// At least one token, or a one-token config yields only empty
	// documents and Generate never reaches NumTokens.
	target := max(1, cfg.TokensPerDoc/2+rng.Intn(cfg.TokensPerDoc))
	// Focus entities of this document, re-mentioned repeatedly.
	nFocus := 2 + rng.Intn(4)
	focus := make([]mention, nFocus)
	for i := range focus {
		focus[i] = freshMention(rng, lx)
	}
	doc := Doc{ID: id}
	for len(doc.Tokens) < target {
		if rng.Float64() < cfg.EntityRate {
			var m mention
			if rng.Float64() < cfg.RepeatRate {
				m = focus[rng.Intn(nFocus)]
			} else {
				m = freshMention(rng, lx)
			}
			for i := range m.strs {
				doc.Tokens = append(doc.Tokens, Token{Str: m.strs[i], Gold: m.labels[i]})
			}
		} else {
			doc.Tokens = append(doc.Tokens, Token{Str: fillers[rng.Intn(len(fillers))], Gold: LO})
		}
	}
	return doc
}

func freshMention(rng *rand.Rand, lx lexicons) mention {
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // person: First [Last]
		m := mention{strs: []string{lx.firsts[rng.Intn(len(lx.firsts))]}, labels: []Label{LBPer}}
		if rng.Float64() < 0.6 {
			m.strs = append(m.strs, lx.lasts[rng.Intn(len(lx.lasts))])
			m.labels = append(m.labels, LIPer)
		}
		return m
	case 4, 5, 6: // organization: Root [Suffix]
		m := mention{strs: []string{lx.orgs[rng.Intn(len(lx.orgs))]}, labels: []Label{LBOrg}}
		if rng.Float64() < 0.5 {
			m.strs = append(m.strs, orgSuffixes[rng.Intn(len(orgSuffixes))])
			m.labels = append(m.labels, LIOrg)
		}
		return m
	case 7, 8: // location, occasionally "New X"
		if rng.Float64() < 0.2 {
			return mention{strs: []string{"New", "York"}, labels: []Label{LBLoc, LILoc}}
		}
		return mention{strs: []string{lx.locs[rng.Intn(len(lx.locs))]}, labels: []Label{LBLoc}}
	default: // miscellaneous
		return mention{strs: []string{miscNames[rng.Intn(len(miscNames))]}, labels: []Label{LBMisc}}
	}
}
