package server

import (
	"net/http"
	"reflect"
	"testing"
)

// TestForkOverHTTP drives POST /sessions/{id}/fork: 201 with the child's
// SessionInfo, whose cells read as the parent's; 404 for an unknown parent,
// 400 for a malformed body or a store that is not durable, and 503 on a
// standby.
func TestForkOverHTTP(t *testing.T) {
	_, tc := newTestServer(t, Options{Store: StoreOptions{SpillDir: t.TempDir(), Durable: true, FsyncPolicy: "never"}})
	var parent SessionInfo
	if code := tc.do("POST", "/sessions", CreateRequest{Name: "parent"}, &parent); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var res EditResult
	if code := tc.do("POST", "/sessions/"+parent.ID+"/edits", EditBatch{Edits: []EditOp{
		{Cell: "A1", Value: num(4)},
		{Cell: "A2", Text: str("tag")},
		{Cell: "B1", Formula: str("A1*10")},
	}}, &res); code != http.StatusOK {
		t.Fatalf("edits: %d", code)
	}
	var child SessionInfo
	if code := tc.do("POST", "/sessions/"+parent.ID+"/fork", ForkRequest{Name: "child"}, &child); code != http.StatusCreated {
		t.Fatalf("fork: %d, want 201", code)
	}
	if child.ID == "" || child.ID == parent.ID || child.Name != "child" || child.Rev != res.Rev {
		t.Fatalf("child %+v of parent %s at rev %d", child, parent.ID, res.Rev)
	}
	var fromParent, fromChild CellsResult
	tc.do("GET", "/sessions/"+parent.ID+"/cells?range=A1:B2&wait=1", nil, &fromParent)
	if code := tc.do("GET", "/sessions/"+child.ID+"/cells?range=A1:B2&wait=1", nil, &fromChild); code != http.StatusOK {
		t.Fatalf("child cells: %d", code)
	}
	if len(fromChild.Cells) != 3 || !reflect.DeepEqual(fromChild.Cells, fromParent.Cells) {
		t.Fatalf("child cells %+v, parent's %+v", fromChild.Cells, fromParent.Cells)
	}
	// An empty body is no name.
	if code := tc.do("POST", "/sessions/"+parent.ID+"/fork", nil, nil); code != http.StatusCreated {
		t.Errorf("fork with no body: %d, want 201", code)
	}
	if code := tc.do("POST", "/sessions/nosuch/fork", ForkRequest{}, nil); code != http.StatusNotFound {
		t.Errorf("fork of an unknown parent: %d, want 404", code)
	}
	if code := tc.do("POST", "/sessions/"+parent.ID+"/fork", []byte(`{"name":`), nil); code != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", code)
	}

	_, mem := newTestServer(t, Options{})
	var s SessionInfo
	mem.do("POST", "/sessions", CreateRequest{}, &s)
	if code := mem.do("POST", "/sessions/"+s.ID+"/fork", ForkRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("fork on a store that is not durable: %d, want 400", code)
	}

	_, _, _, sby := newPair(t)
	if code := sby.do("POST", "/sessions/"+parent.ID+"/fork", ForkRequest{}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("fork on a standby: %d, want 503", code)
	}
}
