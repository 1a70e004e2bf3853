package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// sizing is one dataset scale. Orders, friends, lines and products keep the
// UniBench generator's ratios (internal/unibench.DefaultConfig).
type sizing struct {
	Customers          int
	Products           int
	OrdersPerCustomer  int
	FriendsPerCustomer int
	MaxLinesPerOrder   int
}

// smallData fits the stores' 8192-entry decode caches (query, htap);
// largeData does not (oltp, oltp-sharded).
var (
	smallData = sizing{Customers: 2000, Products: 500, OrdersPerCustomer: 3, FriendsPerCustomer: 4, MaxLinesPerOrder: 4}
	largeData = sizing{Customers: 10000, Products: 500, OrdersPerCustomer: 3, FriendsPerCustomer: 4, MaxLinesPerOrder: 4}
)

var (
	adjectives = []string{"Red", "Fast", "Tiny", "Grand", "Silent", "Lucky", "Solar", "Iron"}
	nouns      = []string{"Toy", "Book", "Computer", "Pen", "Lamp", "Chair", "Phone", "Camera"}
	countries  = []string{"FI", "CZ", "DE", "US", "JP", "BR"}
)

type customer struct {
	ID      int
	Name    string
	Credit  int64
	Country string
}

type product struct {
	Key, Name, Category, Description string
	Price                            int64
}

type orderLine struct {
	Product string
	Price   int64
	Qty     int64
}

type order struct {
	Key      string
	Customer int
	Total    int64
	Lines    []orderLine
}

// dataset is the generator's own record of everything it loads, and the
// model the output checks compare the database against. After load, only
// acknowledged new-order transactions change it (applyNewOrder).
type dataset struct {
	Customers []customer
	Products  []product
	Orders    []order        // load order, then acknowledged new orders
	orderIdx  map[string]int // order key -> index in Orders
	Friends   [][]int        // outbound "knows" edges per customer, insertion order
	Cart      map[int]string // customer -> most recent order key
	Feedback  map[int]map[string]bool
}

func custKey(i int) string { return fmt.Sprintf("c%d", i) }
func prodKey(i int) string { return fmt.Sprintf("p%d", i) }

// generate builds a dataset deterministically from seed.
func generate(sz sizing, seed int64) *dataset {
	r := rand.New(rand.NewSource(seed))
	ds := &dataset{
		orderIdx: map[string]int{},
		Cart:     map[int]string{},
		Feedback: map[int]map[string]bool{},
		Friends:  make([][]int, sz.Customers),
	}
	for p := 0; p < sz.Products; p++ {
		name := adjectives[r.Intn(len(adjectives))] + " " + nouns[r.Intn(len(nouns))]
		ds.Products = append(ds.Products, product{
			Key:         prodKey(p),
			Name:        name,
			Price:       int64(1 + r.Intn(200)),
			Category:    nouns[r.Intn(len(nouns))],
			Description: "The " + strings.ToLower(name) + " is a " + strings.ToLower(adjectives[r.Intn(len(adjectives))]) + " product",
		})
	}
	for c := 0; c < sz.Customers; c++ {
		ds.Customers = append(ds.Customers, customer{
			ID:      c,
			Name:    fmt.Sprintf("Customer %d", c),
			Credit:  int64(r.Intn(10000)),
			Country: countries[r.Intn(len(countries))],
		})
	}
	for c := 0; c < sz.Customers; c++ {
		for f := 0; f < sz.FriendsPerCustomer; f++ {
			if other := r.Intn(sz.Customers); other != c {
				ds.Friends[c] = append(ds.Friends[c], other)
			}
		}
		for o := 0; o < sz.OrdersPerCustomer; o++ {
			n := 1 + r.Intn(sz.MaxLinesPerOrder)
			ord := order{Key: fmt.Sprintf("o%d-%d", c, o), Customer: c}
			for l := 0; l < n; l++ {
				line := orderLine{Product: prodKey(r.Intn(sz.Products)), Price: int64(1 + r.Intn(200)), Qty: int64(1 + r.Intn(3))}
				ord.Total += line.Price
				ord.Lines = append(ord.Lines, line)
			}
			ds.addOrder(ord)
			if r.Intn(2) == 0 {
				ds.addFeedback(c, ord.Lines[0].Product)
			}
		}
	}
	return ds
}

// addOrder records an order and makes it its customer's cart entry.
func (ds *dataset) addOrder(o order) {
	ds.orderIdx[o.Key] = len(ds.Orders)
	ds.Orders = append(ds.Orders, o)
	ds.Cart[o.Customer] = o.Key
}

func (ds *dataset) addFeedback(c int, prod string) {
	if ds.Feedback[c] == nil {
		ds.Feedback[c] = map[string]bool{}
	}
	ds.Feedback[c][prod] = true
}

// newOrder is one new-order transaction's input.
type newOrder struct {
	Key      string
	Customer int
	Product  string
	Price    int64
}

func (n newOrder) order() order {
	return order{Key: n.Key, Customer: n.Customer, Total: n.Price,
		Lines: []orderLine{{Product: n.Product, Price: n.Price, Qty: 1}}}
}

// applyNewOrder updates the model with an acknowledged new-order
// transaction.
func (ds *dataset) applyNewOrder(n newOrder) {
	ds.addOrder(n.order())
	ds.Customers[n.Customer].Credit -= n.Price
	ds.addFeedback(n.Customer, n.Product)
}

// --- Reference answers to Workload B (internal/unibench.QueryB) ---
//
// Each returns the answer in a canonical form the check compares against
// the database's result in the same form (see canon* in check.go). Callers
// hold no lock; the model must be quiescent.

const q1Anchors = 20

// refQ1: products in the carts' orders of friends of the first q1Anchors
// customers (by id) whose credit exceeds minCredit.
func (ds *dataset) refQ1(minCredit int64) []string {
	set := map[string]bool{}
	anchors := 0
	for _, c := range ds.Customers {
		if c.Credit <= minCredit {
			continue
		}
		if anchors == q1Anchors {
			break
		}
		anchors++
		for _, f := range ds.Friends[c.ID] {
			key, ok := ds.Cart[f]
			if !ok {
				continue
			}
			for _, l := range ds.Orders[ds.orderIdx[key]].Lines {
				set[l.Product] = true
			}
		}
	}
	return sortedKeys(set)
}

// refQ2: per customer of a country with orders, the sum of order totals,
// as "id:spend" in id order.
func (ds *dataset) refQ2(country string) []string {
	spend := map[int]int64{}
	has := map[int]bool{}
	for _, o := range ds.Orders {
		spend[o.Customer] += o.Total
		has[o.Customer] = true
	}
	var out []string
	for _, c := range ds.Customers {
		if c.Country == country && has[c.ID] {
			out = append(out, fmt.Sprintf("%d:%d", c.ID, spend[c.ID]))
		}
	}
	return out
}

// refQ3 returns every product's order-line revenue; the check accepts any
// ten results whose revenues are the ten highest in descending order.
func (ds *dataset) refQ3() map[string]int64 {
	rev := map[string]int64{}
	for _, o := range ds.Orders {
		for _, l := range o.Lines {
			rev[l.Product] += l.Price
		}
	}
	return rev
}

// refQ4: order numbers of orders with a line for the product.
func (ds *dataset) refQ4(prod string) []string {
	var out []string
	for _, o := range ds.Orders {
		for _, l := range o.Lines {
			if l.Product == prod {
				out = append(out, o.Key)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// refQ5: products rated by the friends of a customer.
func (ds *dataset) refQ5(start int) []string {
	set := map[string]bool{}
	for _, f := range ds.Friends[start] {
		for p := range ds.Feedback[f] {
			set["<"+p+">"] = true
		}
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
