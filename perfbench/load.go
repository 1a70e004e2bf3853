package main

import (
	"fmt"

	"repro/internal/mmvalue"
	"repro/unidb"
)

// loadBatch is the number of customers loaded per transaction.
const loadBatch = 500

// load writes the dataset through unidb.Txn methods only, so it works under
// every Options the API accepts, Shards > 1 included.
func load(db *unidb.Database, ds *dataset) error {
	err := db.Update(func(t *unidb.Txn) error {
		if err := t.CreateTable("customers", unidb.TableSchema{
			Columns: []unidb.Column{
				{Name: "id", Type: unidb.TInt, NotNull: true},
				{Name: "name", Type: unidb.TString, NotNull: true},
				{Name: "credit_limit", Type: unidb.TInt},
				{Name: "country", Type: unidb.TString},
			},
			PrimaryKey: []string{"id"},
		}); err != nil {
			return err
		}
		for _, c := range []string{"products", "orders"} {
			if err := t.CreateCollection(c); err != nil {
				return err
			}
		}
		if err := t.CreateDocIndex("orders", unidb.IndexDef{Name: "by_customer", Path: "customer_id"}); err != nil {
			return err
		}
		return t.CreateGraph("social")
	})
	if err != nil {
		return fmt.Errorf("load schema: %w", err)
	}
	err = db.Update(func(t *unidb.Txn) error {
		for _, p := range ds.Products {
			if err := t.PutDocument("products", p.Key, mmvalue.Object(
				mmvalue.F("_key", mmvalue.String(p.Key)),
				mmvalue.F("name", mmvalue.String(p.Name)),
				mmvalue.F("price", mmvalue.Int(p.Price)),
				mmvalue.F("category", mmvalue.String(p.Category)),
				mmvalue.F("description", mmvalue.String(p.Description)),
			)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("load products: %w", err)
	}
	n := len(ds.Customers)
	for lo := 0; lo < n; lo += loadBatch {
		hi := min(lo+loadBatch, n)
		err := db.Update(func(t *unidb.Txn) error {
			for _, c := range ds.Customers[lo:hi] {
				if err := t.InsertRow("customers", customerRow(c)); err != nil {
					return err
				}
				if err := t.PutVertex("social", custKey(c.ID), mmvalue.Object(
					mmvalue.F("customer_id", mmvalue.Int(int64(c.ID))),
				)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("load customers: %w", err)
		}
	}
	// Orders are grouped by customer in generation order.
	next := 0
	for lo := 0; lo < n; lo += loadBatch {
		hi := min(lo+loadBatch, n)
		err := db.Update(func(t *unidb.Txn) error {
			for c := lo; c < hi; c++ {
				for _, f := range ds.Friends[c] {
					if _, err := t.Connect("social", custKey(c), custKey(f), "knows"); err != nil {
						return err
					}
				}
				for _, p := range sortedKeys(ds.Feedback[c]) {
					if err := t.InsertTriple("feedback", feedbackTriple(c, p)); err != nil {
						return err
					}
				}
				if cart, ok := ds.Cart[c]; ok {
					if err := t.KVSet("cart", custKey(c), mmvalue.String(cart)); err != nil {
						return err
					}
				}
			}
			for next < len(ds.Orders) && ds.Orders[next].Customer < hi {
				o := ds.Orders[next]
				if err := t.PutDocument("orders", o.Key, orderDoc(o)); err != nil {
					return err
				}
				next++
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("load orders: %w", err)
		}
	}
	return nil
}

func customerRow(c customer) mmvalue.Value {
	return mmvalue.Object(
		mmvalue.F("id", mmvalue.Int(int64(c.ID))),
		mmvalue.F("name", mmvalue.String(c.Name)),
		mmvalue.F("credit_limit", mmvalue.Int(c.Credit)),
		mmvalue.F("country", mmvalue.String(c.Country)),
	)
}

func orderDoc(o order) mmvalue.Value {
	lines := make([]mmvalue.Value, len(o.Lines))
	for i, l := range o.Lines {
		lines[i] = mmvalue.Object(
			mmvalue.F("Product_no", mmvalue.String(l.Product)),
			mmvalue.F("Price", mmvalue.Int(l.Price)),
			mmvalue.F("Qty", mmvalue.Int(l.Qty)),
		)
	}
	return mmvalue.Object(
		mmvalue.F("_key", mmvalue.String(o.Key)),
		mmvalue.F("Order_no", mmvalue.String(o.Key)),
		mmvalue.F("customer_id", mmvalue.Int(int64(o.Customer))),
		mmvalue.F("total", mmvalue.Int(o.Total)),
		mmvalue.F("Orderlines", mmvalue.ArrayOf(lines)),
	)
}

func feedbackTriple(c int, prod string) unidb.Triple {
	return unidb.Triple{S: "<" + custKey(c) + ">", P: "<rated>", O: "<" + prod + ">"}
}
