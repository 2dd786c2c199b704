let validate s = Result.map ignore (Json.parse s)
