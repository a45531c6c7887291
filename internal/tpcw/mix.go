package tpcw

import "math/rand"

// Interaction enumerates the fourteen TPC-W web interactions.
type Interaction int

// The fourteen interactions.
const (
	Home Interaction = iota + 1
	NewProducts
	BestSellers
	ProductDetail
	SearchRequest
	SearchResults
	ShoppingCart
	CustomerRegistration
	BuyRequest
	BuyConfirm
	OrderInquiry
	OrderDisplay
	AdminRequest
	AdminConfirm

	numInteractions = int(AdminConfirm)
)

// String implements fmt.Stringer.
func (i Interaction) String() string {
	names := [...]string{
		"", "Home", "NewProducts", "BestSellers", "ProductDetail",
		"SearchRequest", "SearchResults", "ShoppingCart",
		"CustomerRegistration", "BuyRequest", "BuyConfirm",
		"OrderInquiry", "OrderDisplay", "AdminRequest", "AdminConfirm",
	}
	if int(i) < 1 || int(i) >= len(names) {
		return "Unknown"
	}
	return names[i]
}

// IsUpdate reports whether the interaction runs an update transaction on
// the database tier (inserts/updates). ShoppingCart keeps its cart in the
// application session and only reads item data.
func (i Interaction) IsUpdate() bool {
	switch i {
	case CustomerRegistration, BuyConfirm, AdminConfirm:
		return true
	default:
		return false
	}
}

// Tables returns the table set the interaction touches; the scheduler uses
// it for conflict-class routing. The slice is shared by every call: callers
// must not modify it.
func (i Interaction) Tables() []string {
	if i < Home || i > AdminConfirm {
		return nil
	}
	return interactionTables[i]
}

// interactionTables holds each interaction's table set, indexed by
// interaction.
var interactionTables = [numInteractions + 1][]string{
	Home:                 {"customer", "item"},
	NewProducts:          {"item", "author"},
	BestSellers:          {"order_line", "orders", "item", "author"},
	ProductDetail:        {"item", "author"},
	SearchRequest:        {"country"},
	SearchResults:        {"item", "author"},
	ShoppingCart:         {"item"},
	CustomerRegistration: {"customer", "address"},
	BuyRequest:           {"customer", "address", "country"},
	BuyConfirm:           {"orders", "order_line", "item", "cc_xacts", "customer"},
	OrderInquiry:         {"customer", "orders", "order_line", "item"},
	OrderDisplay:         {"customer", "orders", "order_line", "item"},
	AdminRequest:         {"item", "author"},
	AdminConfirm:         {"item"},
}

// Mix is a probability distribution over the interactions. Weights need not
// sum to one; Pick normalizes.
type Mix struct {
	Name    string
	weights [numInteractions + 1]float64
	total   float64
}

// NewMix builds a mix from interaction weights.
func NewMix(name string, w map[Interaction]float64) Mix {
	m := Mix{Name: name}
	for i, p := range w {
		m.weights[i] = p
		m.total += p
	}
	return m
}

// Pick draws an interaction.
func (m Mix) Pick(r *rand.Rand) Interaction {
	x := r.Float64() * m.total
	acc := 0.0
	for i := 1; i <= numInteractions; i++ {
		acc += m.weights[i]
		if x < acc {
			return Interaction(i)
		}
	}
	return Home
}

// UpdateFraction returns the probability mass on update interactions.
func (m Mix) UpdateFraction() float64 {
	u := 0.0
	for i := 1; i <= numInteractions; i++ {
		if Interaction(i).IsUpdate() {
			u += m.weights[i]
		}
	}
	return u / m.total
}

// The three standard TPC-W mixes, weighted so the update-transaction
// fractions match the paper's characterization: browsing 5%, shopping 20%,
// ordering 50%.
var (
	// BrowsingMix is dominated by the heavyweight read-only interactions.
	BrowsingMix = NewMix("browsing", map[Interaction]float64{
		Home: 0.20, NewProducts: 0.11, BestSellers: 0.11, ProductDetail: 0.18,
		SearchRequest: 0.09, SearchResults: 0.10, ShoppingCart: 0.05,
		BuyRequest: 0.02, OrderInquiry: 0.03, OrderDisplay: 0.03, AdminRequest: 0.03,
		CustomerRegistration: 0.02, BuyConfirm: 0.02, AdminConfirm: 0.01,
	})
	// ShoppingMix is the paper's (and industry's) most common mix.
	ShoppingMix = NewMix("shopping", map[Interaction]float64{
		Home: 0.14, NewProducts: 0.08, BestSellers: 0.08, ProductDetail: 0.14,
		SearchRequest: 0.07, SearchResults: 0.08, ShoppingCart: 0.08,
		BuyRequest: 0.06, OrderInquiry: 0.03, OrderDisplay: 0.02, AdminRequest: 0.02,
		CustomerRegistration: 0.06, BuyConfirm: 0.11, AdminConfirm: 0.03,
	})
	// OrderingMix is write-heavy.
	OrderingMix = NewMix("ordering", map[Interaction]float64{
		Home: 0.09, NewProducts: 0.02, BestSellers: 0.02, ProductDetail: 0.09,
		SearchRequest: 0.04, SearchResults: 0.05, ShoppingCart: 0.08,
		BuyRequest: 0.06, OrderInquiry: 0.03, OrderDisplay: 0.02, AdminRequest: 0.00,
		CustomerRegistration: 0.12, BuyConfirm: 0.30, AdminConfirm: 0.08,
	})
)

// MixByName resolves a mix by its name ("browsing", "shopping", "ordering").
func MixByName(name string) (Mix, bool) {
	switch name {
	case "browsing":
		return BrowsingMix, true
	case "shopping":
		return ShoppingMix, true
	case "ordering":
		return OrderingMix, true
	default:
		return Mix{}, false
	}
}
