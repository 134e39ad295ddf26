// The benchmark is a module of its own so that it builds from its own
// directory; it reaches the code under test through the replace below and
// therefore fails to build in a checkout that lacks the parent module.
module mirror/bench

go 1.22

require mirror v0.0.0

replace mirror => ../
