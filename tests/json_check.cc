/**
 * @file
 * json_check SCHEMA — read a JSON document on stdin and exit 0 when
 * it parses and its top-level "schema" member equals SCHEMA. The
 * ctests pipe every tool's JSON output through it.
 */

#include <iostream>
#include <iterator>
#include <string>

#include "sim/json.hh"

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::cerr << "usage: json_check SCHEMA < document.json\n";
        return 2;
    }
    std::string text{std::istreambuf_iterator<char>(std::cin),
                     std::istreambuf_iterator<char>()};
    auto doc = ifp::sim::json::tryParse(text);
    if (!doc) {
        std::cerr << "json_check: not valid JSON\n";
        return 1;
    }
    const ifp::sim::json::Value *schema = doc->find("schema");
    if (!schema || !schema->isString() || schema->string != argv[1]) {
        std::cerr << "json_check: schema is not " << argv[1] << "\n";
        return 1;
    }
    return 0;
}
