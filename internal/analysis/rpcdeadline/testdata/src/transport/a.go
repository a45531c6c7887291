// Package transport is the rpcdeadline fixture for the rules scoped to the
// transport layer itself: raw net/rpc confined to the blessed primitive,
// and no constant non-positive deadlines in options or arguments.
package transport

import (
	"net/rpc"
	"time"
)

// ClientOptions mirrors the real transport options struct.
type ClientOptions struct {
	DialTimeout time.Duration
	CallTimeout time.Duration
	PingTimeout time.Duration
}

// Node is a minimal client wrapper.
type Node struct {
	c    *rpc.Client
	cc   *clientConn
	opts ClientOptions
}

// clientConn mirrors the transport's own call multiplexer.
type clientConn struct{}

func (c *clientConn) roundTrip(method string, args, reply any, d time.Duration) error { return nil }

// callOnce is the blessed raw-call site.
func (n *Node) callOnce(method string, args, reply any, d time.Duration) error {
	if n.cc != nil {
		return n.cc.roundTrip(method, args, reply, d) // allowed: inside callOnce
	}
	return n.c.Call(method, args, reply) // allowed: inside callOnce
}

// callIdem is a retry wrapper that composes callOnce.
func (n *Node) callIdem(method string, args, reply any, d time.Duration) error {
	return n.callOnce(method, args, reply, d)
}

func (n *Node) rawCall(method string, args, reply any) error {
	return n.c.Call(method, args, reply) // want `raw \(\*rpc\.Client\)\.Call outside callOnce`
}

func (n *Node) rawGo(method string, args, reply any) {
	n.c.Go(method, args, reply, nil) // want `raw \(\*rpc\.Client\)\.Go outside callOnce`
}

func (n *Node) rawRoundTrip(method string, args, reply any) error {
	return n.cc.roundTrip(method, args, reply, time.Second) // want `raw \(\*clientConn\)\.roundTrip outside callOnce`
}

func (n *Node) rawSuppressed(method string, args, reply any) error {
	//dmv:ignore(rpcdeadline) fixture: demonstrating a documented suppression
	return n.c.Call(method, args, reply)
}

func badOptions() ClientOptions {
	return ClientOptions{
		CallTimeout: 0,  // want `ClientOptions\.CallTimeout set to non-positive constant`
		PingTimeout: -1, // want `ClientOptions\.PingTimeout set to non-positive constant`
	}
}

func badAssign(o *ClientOptions) {
	o.CallTimeout = -1 * time.Second // want `ClientOptions\.CallTimeout assigned non-positive constant`
	o.DialTimeout = 2 * time.Second  // fine: positive
}

func goodOptions() ClientOptions {
	return ClientOptions{CallTimeout: 5 * time.Second}
}

func badDeadlineArg(n *Node) {
	_ = n.callOnce("Node.Ping", nil, nil, 0)           // want `callOnce called with non-positive constant deadline`
	_ = n.callIdem("Node.Status", nil, nil, -1)        // want `callIdem called with non-positive constant deadline`
	_ = n.callOnce("Node.Ping", nil, nil, time.Second) // fine: bounded
}
