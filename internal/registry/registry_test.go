package registry

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"harness2/internal/wsdl"
)

func matmulWSDL(t testing.TB) (string, *wsdl.Definitions) {
	t.Helper()
	d, err := wsdl.Generate(wsdl.MatMulSpec(), wsdl.EndpointSet{
		SOAPAddress: "http://host:8080/matmul",
		XDRAddress:  "host:9010",
	})
	if err != nil {
		t.Fatal(err)
	}
	return d.String(), d
}

func wstimeWSDL(t *testing.T) string {
	t.Helper()
	d, err := wsdl.Generate(wsdl.WSTimeSpec(), wsdl.EndpointSet{
		SOAPAddress: "http://host:8080/time",
	})
	if err != nil {
		t.Fatal(err)
	}
	return d.String()
}

func TestPublishGetRemove(t *testing.T) {
	r := New()
	xml, defs := matmulWSDL(t)
	key, err := r.Publish(Entry{Name: "MatMul", Business: "nodeA", WSDL: xml, TModels: TModelsFor(defs)})
	if err != nil {
		t.Fatal(err)
	}
	if key == "" {
		t.Fatal("empty key")
	}
	e, ok := r.Get(key)
	if !ok || e.Name != "MatMul" || e.Business != "nodeA" {
		t.Fatalf("get = %+v ok=%v", e, ok)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
	if err := r.Remove(key); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(key); ok {
		t.Fatal("entry should be gone")
	}
	if err := r.Remove(key); err == nil {
		t.Fatal("double remove should error")
	}
}

func TestPublishValidation(t *testing.T) {
	r := New()
	if _, err := r.Publish(Entry{Name: "", WSDL: "<definitions/>"}); err == nil {
		t.Error("unnamed entry should fail")
	}
	if _, err := r.Publish(Entry{Name: "x", WSDL: "not xml"}); err == nil {
		t.Error("unparsable WSDL should fail")
	}
	if _, err := r.Publish(Entry{Name: "x", WSDL: "<notwsdl/>"}); err == nil {
		t.Error("non-WSDL XML should fail")
	}
}

func TestRepublishReplacesAndReindexes(t *testing.T) {
	r := New()
	xml, _ := matmulWSDL(t)
	key, err := r.Publish(Entry{Key: "fixed", Name: "MatMul", WSDL: xml})
	if err != nil || key != "fixed" {
		t.Fatalf("key=%q err=%v", key, err)
	}
	// Republish under a new name: old name index entry must vanish.
	if _, err := r.Publish(Entry{Key: "fixed", Name: "MatMulV2", WSDL: xml}); err != nil {
		t.Fatal(err)
	}
	if got := r.FindByName("MatMul"); len(got) != 0 {
		t.Fatalf("stale name index: %v", got)
	}
	if got := r.FindByName("MatMulV2"); len(got) != 1 {
		t.Fatalf("new name missing: %v", got)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestFindByName(t *testing.T) {
	r := New()
	xml, _ := matmulWSDL(t)
	for i := 0; i < 3; i++ {
		if _, err := r.Publish(Entry{Name: "MatMul", Business: fmt.Sprintf("node%d", i), WSDL: xml}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Publish(Entry{Name: "Other", WSDL: wstimeWSDL(t)}); err != nil {
		t.Fatal(err)
	}
	got := r.FindByName("MatMul")
	if len(got) != 3 {
		t.Fatalf("found %d", len(got))
	}
	if len(r.FindByName("nope")) != 0 {
		t.Fatal("miss should return empty")
	}
}

func TestFindByTModel(t *testing.T) {
	r := New()
	xml, defs := matmulWSDL(t)
	tms := TModelsFor(defs)
	if len(tms) != 2 { // soap + xdr
		t.Fatalf("tmodels = %v", tms)
	}
	if _, err := r.Publish(Entry{Name: "MatMul", WSDL: xml, TModels: tms}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(Entry{Name: "Time", WSDL: wstimeWSDL(t), TModels: []string{"uddi:harness2:binding:soap"}}); err != nil {
		t.Fatal(err)
	}
	if got := r.FindByTModel("uddi:harness2:binding:xdr"); len(got) != 1 || got[0].Name != "MatMul" {
		t.Fatalf("xdr find = %v", got)
	}
	if got := r.FindByTModel("uddi:harness2:binding:soap"); len(got) != 2 {
		t.Fatalf("soap find = %v", got)
	}
}

func TestFindByQuery(t *testing.T) {
	r := New()
	xml, _ := matmulWSDL(t)
	if _, err := r.Publish(Entry{Name: "MatMul", WSDL: xml}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(Entry{Name: "Time", WSDL: wstimeWSDL(t)}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q    string
		want int
	}{
		{"//binding/xdr:binding", 1},
		{"//binding/soap:binding", 2},
		{"//service[@name='MatMulService']", 1},
		{"//part[@type='xsd:ArrayOfDouble']", 1},
		{"//operation[@name='getTime']", 1},
		{"//operation[@name='nothing']", 0},
	}
	for _, c := range cases {
		got, err := r.FindByQuery(c.q)
		if err != nil {
			t.Errorf("query %q: %v", c.q, err)
			continue
		}
		if len(got) != c.want {
			t.Errorf("query %q: got %d want %d", c.q, len(got), c.want)
		}
	}
	if _, err := r.FindByQuery("not a query"); err == nil {
		t.Error("bad query should error")
	}
}

func TestTModelRegistration(t *testing.T) {
	r := New()
	for _, tm := range WellKnownTModels() {
		if err := r.PublishTModel(tm); err != nil {
			t.Fatal(err)
		}
	}
	tm, ok := r.TModelByKey("uddi:harness2:binding:xdr")
	if !ok || !strings.Contains(tm.Name, "XDR") {
		t.Fatalf("tm = %+v ok=%v", tm, ok)
	}
	if err := r.PublishTModel(TModel{}); err == nil {
		t.Fatal("empty tModel should fail")
	}
}

// TestEveryGeneratedBindingHasTModel: a WSDL advertising every endpoint
// carries every binding kind, and each has a well-known tModel, so a
// service is discoverable by any access mechanism it offers.
func TestEveryGeneratedBindingHasTModel(t *testing.T) {
	d, err := wsdl.Generate(wsdl.MatMulSpec(), wsdl.EndpointSet{
		SOAPAddress:  "http://host:8080/services/m1",
		HTTPAddress:  "http://host:8080/rest/m1",
		XDRAddress:   "host:9010",
		ShmAddress:   "shm:host:/tmp/h2.sock",
		LocalAddress: "local:node/m1",
		Class:        "MatMul",
		Instance:     "m1",
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := TModelsFor(d)
	if len(keys) != len(wsdl.BindingKinds()) {
		t.Fatalf("generated WSDL carries %v, want one key per kind %v", keys, wsdl.BindingKinds())
	}
	known := map[string]bool{}
	for _, tm := range WellKnownTModels() {
		known[tm.Key] = true
	}
	for _, k := range keys {
		if !known[k] {
			t.Errorf("no well-known tModel for %s", k)
		}
	}
}

func TestListSorted(t *testing.T) {
	r := New()
	xml, _ := matmulWSDL(t)
	for i := 0; i < 5; i++ {
		if _, err := r.Publish(Entry{Name: "S", WSDL: xml}); err != nil {
			t.Fatal(err)
		}
	}
	list := r.List()
	if len(list) != 5 {
		t.Fatalf("list = %d", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Key >= list[i].Key {
			t.Fatal("list not sorted by key")
		}
	}
}

func TestConcurrentPublishFind(t *testing.T) {
	r := New()
	xml, _ := matmulWSDL(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				name := fmt.Sprintf("S%d", i)
				if _, err := r.Publish(Entry{Name: name, WSDL: xml}); err != nil {
					t.Error(err)
					return
				}
				_ = r.FindByName(name)
				_, _ = r.FindByQuery("//service")
			}
		}(i)
	}
	wg.Wait()
	if r.Len() != 160 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestSOAPServerRoundTrip(t *testing.T) {
	reg := New()
	ts := httptest.NewServer(NewServer(reg))
	defer ts.Close()
	remote := NewRemote(ts.URL)

	xml, defs := matmulWSDL(t)
	key, err := remote.Publish(Entry{Name: "MatMul", Business: "nodeA", WSDL: xml, TModels: TModelsFor(defs)})
	if err != nil {
		t.Fatal(err)
	}
	if key == "" {
		t.Fatal("no key")
	}
	// The local registry must see the remotely published entry.
	if reg.Len() != 1 {
		t.Fatalf("local len = %d", reg.Len())
	}
	e, ok := remote.Get(key)
	if !ok || e.Name != "MatMul" || e.Business != "nodeA" || e.WSDL == "" {
		t.Fatalf("remote get = %+v", e)
	}
	if len(e.TModels) != 2 {
		t.Fatalf("tmodels lost: %v", e.TModels)
	}
	found := remote.FindByName("MatMul")
	if len(found) != 1 || found[0].Key != key {
		t.Fatalf("findByName = %v", found)
	}
	qfound, err := remote.FindByQuery("//binding/xdr:binding")
	if err != nil || len(qfound) != 1 {
		t.Fatalf("findByQuery = %v err=%v", qfound, err)
	}
	// Round-trip: the WSDL fetched through SOAP must still parse.
	if _, err := wsdl.ParseString(qfound[0].WSDL); err != nil {
		t.Fatalf("returned WSDL unparsable: %v", err)
	}
	if err := remote.Remove(key); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 0 {
		t.Fatal("remove did not propagate")
	}
	if _, ok := remote.Get(key); ok {
		t.Fatal("get after remove should miss")
	}
}

func TestSOAPServerErrors(t *testing.T) {
	reg := New()
	ts := httptest.NewServer(NewServer(reg))
	defer ts.Close()
	remote := NewRemote(ts.URL)

	if _, err := remote.Publish(Entry{Name: "", WSDL: "<x/>"}); err == nil {
		t.Error("publish of invalid entry should fail remotely")
	}
	if err := remote.Remove("nope"); err == nil {
		t.Error("remove of unknown key should fail remotely")
	}
	if _, err := remote.FindByQuery("bad query"); err == nil {
		t.Error("bad query should fail remotely")
	}
	if _, ok := remote.Get("nope"); ok {
		t.Error("get of unknown key should miss")
	}
}

func TestFindByQueryEmptyResultRemote(t *testing.T) {
	reg := New()
	ts := httptest.NewServer(NewServer(reg))
	defer ts.Close()
	remote := NewRemote(ts.URL)
	got, err := remote.FindByQuery("//service")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("want empty, got %v", got)
	}
}
